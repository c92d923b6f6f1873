package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"smarq/internal/dynopt"
	"smarq/internal/harness"
	"smarq/internal/workload"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	E2E []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchSpec(t *testing.T) *benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchSpec
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

func testRefs(t *testing.T) ([]reference, *expectations) {
	t.Helper()
	refs, err := computeReferences(workload.SuiteScaled(suiteScale))
	if err != nil {
		t.Fatal(err)
	}
	e, err := loadExpectations("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	return refs, e
}

// runOnce runs a one-pass measurement and returns its deterministic
// outputs: every first-pass job's Stats (shared-cache counters scrubbed,
// since which tenant leads a compile depends on timing), sim_cpi and
// error_rate.
func runOnce(w *workloadSpec, refs []reference, e *expectations) ([]dynopt.Stats, float64, float64) {
	m := measure(w, 7, 0, refs, e)
	stats := make([]dynopt.Stats, len(m.firstPass))
	for i, st := range m.firstPass {
		stats[i] = harness.ScrubSharedCounters(st)
		stats[i].Regions = nil
	}
	e2e := m.endToEnd().metrics
	return stats, e2e["sim_cpi"], e2e["error_rate"]
}

func TestCountsRepeatAcrossRunsAndGOMAXPROCS(t *testing.T) {
	refs, e := testRefs(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			runtime.GOMAXPROCS(2)
			want, cpi, errRate := runOnce(w, refs, e)
			if errRate != 0 {
				t.Fatalf("error_rate %v at HEAD, want 0", errRate)
			}
			for _, procs := range []int{2, 1} {
				runtime.GOMAXPROCS(procs)
				got, gotCPI, gotErr := runOnce(w, refs, e)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("GOMAXPROCS=%d: first-pass stats differ between runs", procs)
				}
				if gotCPI != cpi || gotErr != errRate {
					t.Errorf("GOMAXPROCS=%d: sim_cpi %v error_rate %v, first run %v %v", procs, gotCPI, gotErr, cpi, errRate)
				}
			}
		})
	}
}

// lastLine parses the result object a run prints last.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result object: %v\n%s", err, out)
	}
	return res
}

func TestEveryBenchmarkMetricPrintedWithUnit(t *testing.T) {
	spec := loadBenchSpec(t)
	for _, wl := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := run([]string{"-workload", wl.Name, "-seed", "3", "-seconds", "0", "-trace", trace, "-out", t.TempDir()}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
				}
				res := lastLine(t, out.String())
				want := spec.E2E
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(out.String(), m.Name+" ") {
						t.Errorf("metric %s missing from the printed table", m.Name)
					}
				}
			})
		}
	}
}

func TestCorruptedExpectationFailsTheGate(t *testing.T) {
	e, err := loadExpectations("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := e.lookup("steady", 0, "swim")
	p.TotalCycles++
	e.set("steady", 0, "swim", p)
	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.json")
	if err := e.write(path); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", "steady", "-seed", "1", "-seconds", "0", "-expect", path, "-out", dir}, &out, &errOut)
	if code == 0 {
		t.Fatalf("run with a corrupted expectation exited 0\n%s", out.String())
	}
	res := lastLine(t, out.String())
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted expectation not caught: %+v", res)
	}
	data, err := os.ReadFile(filepath.Join(dir, "steady-seed1-trace0.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec resultFile
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ErrorRate <= 0 {
		t.Fatalf("error_rate %v with a corrupted expectation, want > 0", rec.ErrorRate)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if pct, v, beyond := tail(xs); pct != 90 || v != 180 || beyond != 20 {
		t.Errorf("tail of 1..200 = p%v %v (%d beyond), want p90 180 (20 beyond)", pct, v, beyond)
	}
	if pct, _, beyond := tail(xs[:50]); pct != 75 || beyond < 10 {
		t.Errorf("tail of 50 samples = p%v with %d beyond, want p75 with at least 10", pct, beyond)
	}
}

// TestWindowsScaleToReferenceHost checks the window grouping and that a
// run on a host faster than the reference host has its timings scaled by
// speedFactor of the run's median host speed.
func TestWindowsScaleToReferenceHost(t *testing.T) {
	m := &measurement{spec: workloads[0], setupS: []float64{0.001}, setupSpeed: refKernelSpeed}
	for p := 0; p < 20; p++ {
		speed := 2 * refKernelSpeed
		if p%4 == 0 {
			speed = refKernelSpeed / 2
		}
		m.speeds = append(m.speeds, speed)
		first := len(m.jobMS)
		for j := 0; j < 14; j++ {
			m.jobMS = append(m.jobMS, float64(j+1))
		}
		m.passSamples = append(m.passSamples, passSample{wall: time.Second, insts: 1e6, firstJob: first, endJob: len(m.jobMS)})
	}
	ws := m.windows()
	if len(ws) != 2 || len(ws[0]) != 8 || len(ws[1]) != 12 {
		t.Fatalf("20 passes of 14 jobs grouped into %d windows, want 8 + 12 passes", len(ws))
	}
	r := m.endToEnd()
	f := math.Pow(2, m.spec.elasticity)
	if r.hostSpeed != 2*refKernelSpeed {
		t.Errorf("run host speed %v, want the median reading %v", r.hostSpeed, 2*refKernelSpeed)
	}
	for name, want := range map[string]float64{
		"guest_insts_per_s": 1e6 / f,
		"job_ms_p50":        7.5 * f,
		"job_ms_tail":       13 * f,
		"setup_s":           0.001,
	} {
		if got := r.metrics[name]; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := r.raw["guest_insts_per_s"]; got != 1e6 {
		t.Errorf("raw guest_insts_per_s %v, want 1e6", got)
	}
}
