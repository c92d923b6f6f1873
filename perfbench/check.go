package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"smarq/internal/dynopt"
	"smarq/internal/guest"
	"smarq/internal/interp"
	"smarq/internal/workload"
)

// reference is one program's architecturally correct end state, computed
// by the per-instruction guest.Exec engine (interp with Ref set).
type reference struct {
	state  guest.State
	digest uint64
}

// computeReferences runs every program once on the reference engine. It
// is untimed and not part of setup_s.
func computeReferences(suite []workload.Benchmark) ([]reference, error) {
	refs := make([]reference, len(suite))
	for i, bm := range suite {
		st := &guest.State{}
		mem := guest.NewMemory(bm.MemSize)
		prog := bm.Build()
		it := interp.New(prog, st, mem)
		it.Ref = true
		halted, err := it.Run(prog.Entry, bm.MaxInsts)
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", bm.Name, err)
		}
		if !halted {
			return nil, fmt.Errorf("reference run of %s did not halt within %d instructions", bm.Name, bm.MaxInsts)
		}
		refs[i] = reference{state: *st, digest: mem.Digest()}
	}
	return refs, nil
}

// pinned is the slice of a job's simulated Stats that the expected data
// fixes. The simulation is deterministic, so every job of one program
// under one workload configuration reproduces these exactly.
type pinned struct {
	GuestInsts      int64 `json:"guest_insts"`
	TotalCycles     int64 `json:"total_cycles"`
	Commits         int64 `json:"commits"`
	AliasExceptions int64 `json:"alias_exceptions"`
	GuardFails      int64 `json:"guard_fails"`
	RegionsCompiled int   `json:"regions_compiled"`
}

func pinOf(st *dynopt.Stats) pinned {
	return pinned{
		GuestInsts:      st.GuestInsts,
		TotalCycles:     st.TotalCycles,
		Commits:         st.Commits,
		AliasExceptions: st.AliasExceptions,
		GuardFails:      st.GuardFails,
		RegionsCompiled: st.RegionsCompiled,
	}
}

// expectations holds the pinned stats per workload, input variant and
// program, at one suite scale.
type expectations struct {
	Scale     int64                                   `json:"scale"`
	Workloads map[string]map[string]map[string]pinned `json:"workloads"`
}

func loadExpectations(path string) (*expectations, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read expectations: %w", err)
	}
	var e expectations
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("parse expectations %s: %w", path, err)
	}
	return &e, nil
}

func (e *expectations) lookup(wl string, variant int, prog string) (pinned, bool) {
	p, ok := e.Workloads[wl][strconv.Itoa(variant)][prog]
	return p, ok
}

func (e *expectations) set(wl string, variant int, prog string, p pinned) {
	if e.Workloads == nil {
		e.Workloads = make(map[string]map[string]map[string]pinned)
	}
	byVariant := e.Workloads[wl]
	if byVariant == nil {
		byVariant = make(map[string]map[string]pinned)
		e.Workloads[wl] = byVariant
	}
	v := strconv.Itoa(variant)
	if byVariant[v] == nil {
		byVariant[v] = make(map[string]pinned)
	}
	byVariant[v][prog] = p
}

func (e *expectations) write(path string) error {
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkJob compares one finished job with its reference and its pinned
// stats; a non-nil error makes the job count as failed.
func checkJob(name string, halted bool, st *guest.State, digest uint64, stats *dynopt.Stats, ref *reference, want pinned, havePin bool) error {
	if !halted {
		return fmt.Errorf("%s: did not halt within its budget", name)
	}
	if *st != ref.state {
		return fmt.Errorf("%s: final registers differ from the reference interpreter", name)
	}
	if digest != ref.digest {
		return fmt.Errorf("%s: memory digest %#x, reference %#x", name, digest, ref.digest)
	}
	if !havePin {
		return fmt.Errorf("%s: no pinned stats in the expected data", name)
	}
	if got := pinOf(stats); got != want {
		return fmt.Errorf("%s: simulated stats %+v, pinned %+v", name, got, want)
	}
	return nil
}
