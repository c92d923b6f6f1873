package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// TestMain lets a test run this binary as smarq-bench itself: with
// SMARQ_BENCH_MAIN=1 in the environment, the process is the command.
func TestMain(m *testing.M) {
	if os.Getenv("SMARQ_BENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// traceByRun runs smarq-bench with args plus -trace and returns the trace
// lines grouped by run ID, in file order within each run.
func traceByRun(t *testing.T, args ...string) map[int][]string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	cmd := exec.Command(os.Args[0], append(args, "-trace", path)...)
	cmd.Env = append(os.Environ(), "SMARQ_BENCH_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("smarq-bench %v: %v\n%s", args, err, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs := map[int][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			Run int `json:"run"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		runs[ev.Run] = append(runs[ev.Run], sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestParallelTraceRunIDsDeterministic: under -parallel 2 the cells of
// fig15 start in whatever order the workers pick them up, yet every cell
// must get the same run ID on every invocation, and each run's events
// must be byte-identical. Batches of concurrently running cells reach the
// shared trace in completion order, so the check is per run.
func TestParallelTraceRunIDsDeterministic(t *testing.T) {
	args := []string{"-only", "fig15", "-bench", "swim", "-parallel", "2"}
	first := traceByRun(t, args...)
	second := traceByRun(t, args...)
	want := map[int]string{1: "swim/nohw", 2: "swim/smarq64", 3: "swim/smarq16", 4: "swim/alat"}
	if len(first) != len(want) {
		t.Fatalf("trace holds %d runs, want %d", len(first), len(want))
	}
	for run, name := range want {
		var meta struct {
			Ev   string `json:"ev"`
			Name string `json:"name"`
		}
		if lines := first[run]; len(lines) == 0 || json.Unmarshal([]byte(lines[0]), &meta) != nil ||
			meta.Ev != "meta" || meta.Name != name {
			t.Errorf("run %d does not open with a meta event naming %s", run, name)
		}
	}
	if !reflect.DeepEqual(first, second) {
		for run := range want {
			if !reflect.DeepEqual(first[run], second[run]) {
				t.Errorf("run %d differs between two identical invocations", run)
			}
		}
	}
}
