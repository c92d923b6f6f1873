// Command perfbench is the repository benchmark: it runs one workload of
// the SMARQ dynamic optimizer for a fixed host time, checks every job
// against the reference interpreter and the pinned simulated stats, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics
// of a traced replay). See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"smarq/internal/workload"
)

// metricDef names a metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are the user-visible metrics of an untraced run.
// error_rate is reported too but is not listed in BENCHMARK.json, whose
// end-to-end metrics must never read 0; the result line carries it as
// failed/attempted.
var endToEndMetrics = []metricDef{
	{"guest_insts_per_s", "inst/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_tail", "ms"},
	{"setup_s", "s"},
	{"sim_cpi", "cycles/inst"},
	{"alloc_bytes_per_kinst", "B/kinst"},
	{"error_rate", "ratio"},
}

// perLayerMetrics are the metrics of a traced run.
var perLayerMetrics = []metricDef{
	{"interp.ns_per_inst", "ns"},
	{"interp.decode_us", "us"},
	{"interp.insts_share", "ratio"},
	{"region.form_us", "us"},
	{"xlate.translate_us", "us"},
	{"alias.table_us", "us"},
	{"opt.run_us", "us"},
	{"deps.compute_us", "us"},
	{"sched.run_us", "us"},
	{"vliw.encode_us", "us"},
	{"compile.regions", "count"},
	{"compile.overflow_retries", "count"},
	{"compilequeue.key_ns_per_inst", "ns"},
	{"compilequeue.memo_hit_ratio", "ratio"},
	{"compilequeue.pool_wait_us", "us"},
	{"vliw.exec_ns_per_entry", "ns"},
	{"vliw.exec_ns_per_inst", "ns"},
	{"vliw.dispatches", "count"},
	{"vliw.commit_ratio", "ratio"},
	{"aliashw.detector_ns_per_entry", "ns"},
	{"aliashw.checks_per_kinst", "1/kinst"},
	{"atomic.store_ns", "ns"},
	{"atomic.rollback_ns_per_store", "ns"},
	{"dynopt.rollbacks", "count"},
	{"dynopt.rollback_cycle_share", "ratio"},
	{"dynopt.ladder_moves", "count"},
	{"dynopt.glue_share", "ratio"},
	{"health.moves", "count"},
	{"codecache.lookup_ns", "ns"},
	{"codecache.lookup_ns_2g", "ns"},
	{"codecache.dedupe_pct", "%"},
	{"codecache.compiles", "count"},
	{"harness.cpu_per_wall", "ratio"},
	{"harness.tenant_wall_spread", "ratio"},
	{"trace.accounted_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.interp_pct", "%"},
	{"trace.compile_pct", "%"},
	{"trace.compilequeue_pct", "%"},
	{"trace.vliw_pct", "%"},
	{"trace.aliashw_pct", "%"},
	{"trace.atomic_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envStamp identifies where and on what a result was measured.
type envStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Revision   string `json:"revision"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Variants   int    `json:"variants"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
	Scale      int64  `json:"scale"`
	Programs   int    `json:"programs"`
	Passes     int    `json:"passes"`
	Windows    int    `json:"windows"`
	Jobs       int    `json:"jobs"`
	GuestInsts int64  `json:"guest_insts"`
}

// resultFile is the full record written under the output directory; the
// compare mode of run.py reads these.
type resultFile struct {
	Env        envStamp               `json:"env"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	ErrorRate  float64                `json:"error_rate"`
	TailPct    float64                `json:"tail_percentile"`
	TailBeyond int                    `json:"tail_samples_beyond"`
	Metrics    map[string]metricValue `json:"metrics"`
	Raw        map[string]float64     `json:"raw_timings,omitempty"`
	HostSpeed  float64                `json:"host_speed,omitempty"`
	SetupSpeed float64                `json:"setup_host_speed,omitempty"`
	Elasticity float64                `json:"elasticity,omitempty"`
	Windows    []windowFigure         `json:"windows,omitempty"`
	TraceFile  string                 `json:"trace_file,omitempty"`
	Errors     []string               `json:"errors,omitempty"`
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	expect   string
	outDir   string
	rev      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var pin bool
	fs.StringVar(&o.workload, "workload", "", "workload to run: steady, churn or fleet")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced replay instead of the end-to-end metrics")
	fs.StringVar(&o.expect, "expect", "expected.json", "pinned simulated stats")
	fs.StringVar(&o.outDir, "out", ".bench_out", "directory for result and trace files")
	fs.StringVar(&o.rev, "rev", "unknown", "source revision recorded in the result")
	fs.BoolVar(&pin, "pin", false, "regenerate the pinned stats file named by -expect and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	o.trace = traceFlag == 1
	runtime.GOMAXPROCS(runtime.NumCPU())

	if pin {
		if err := pinAll(o.expect); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		return 0
	}
	res, err := execute(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	report(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and returns its result record.
func execute(o options, log io.Writer) (*resultFile, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 0 {
		return nil, fmt.Errorf("-seconds must be >= 0")
	}
	expect, err := loadExpectations(o.expect)
	if err != nil {
		return nil, err
	}
	if expect.Scale != suiteScale {
		return nil, fmt.Errorf("expectations pinned at scale %d, benchmark runs scale %d", expect.Scale, suiteScale)
	}
	suite := workload.SuiteScaled(suiteScale)
	refs, err := computeReferences(suite)
	if err != nil {
		return nil, err
	}

	m := measure(w, o.seed, time.Duration(o.seconds)*time.Second, refs, expect)
	r := m.endToEnd()
	e2e := r.metrics
	res := &resultFile{
		Env: envStamp{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			Revision:   o.rev,
			Workload:   w.name,
			Seed:       o.seed,
			Variants:   w.variants,
			Trace:      o.trace,
			Seconds:    o.seconds,
			Scale:      suiteScale,
			Programs:   len(suite),
			Passes:     m.passes,
			Windows:    len(r.windows),
			Jobs:       len(m.jobMS),
			GuestInsts: m.insts,
		},
		Attempted:  m.attempted,
		Failed:     m.failed,
		ErrorRate:  e2e["error_rate"],
		Raw:        r.raw,
		HostSpeed:  r.hostSpeed,
		SetupSpeed: r.setupSpeed,
		Elasticity: w.elasticity,
		Windows:    r.windows,
		Errors:     m.errs,
		Metrics:    make(map[string]metricValue),
	}

	// job_ms_tail's percentile is the one taken in the window with the
	// fewest jobs beyond it.
	for i, f := range r.windows {
		if i == 0 || f.TailBeyond < res.TailBeyond {
			res.TailPct, res.TailBeyond = f.TailPct, f.TailBeyond
		}
	}

	defs, values := endToEndMetrics, e2e
	if o.trace {
		// Untraced replays before and after the traced one give the
		// tracing overhead without favouring either side with warm caches.
		tr := &tracer{on: true, origin: time.Now()}
		var untracedWall time.Duration
		var traced *layerTimes
		for _, t := range []*tracer{{}, tr, {}} {
			lt, err := replay(w, t)
			if err != nil {
				return nil, err
			}
			if t.on {
				traced = lt
			} else {
				untracedWall += lt.wall / 2
			}
		}
		values = layerMetrics(m, traced, untracedWall)
		defs = perLayerMetrics
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		names := make([]string, 0, len(suite)+1)
		for _, bm := range suite {
			names = append(names, bm.Name)
		}
		names = append(names, "codecache")
		res.TraceFile = filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
		if err := tr.writeChrome(res.TraceFile, names); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	res.Correct = m.failed == 0 && m.attempted > 0
	if err := writeResult(o, res); err != nil {
		fmt.Fprintf(log, "perfbench: %v\n", err)
	}
	return res, nil
}

func writeResult(o options, res *resultFile) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)
	return os.WriteFile(filepath.Join(o.outDir, name), append(data, '\n'), 0o644)
}

// report prints the human-readable table, the environment stamp and, as
// the last line, the result object. error_rate appears only in the table:
// the result object carries it as failed/attempted.
func report(w io.Writer, res *resultFile) {
	env, _ := json.Marshal(res.Env)
	fmt.Fprintf(w, "# env %s\n", env)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mv := res.Metrics[n]
		fmt.Fprintf(w, "%-32s %16.6g %s\n", n, mv.Value, mv.Unit)
	}
	if !res.Env.Trace {
		fmt.Fprintf(w, "# timings are medians over %d windows of whole passes; job_ms_tail is each window's p%g (at least %d samples beyond it), of %d jobs in all\n",
			res.Env.Windows, res.TailPct, res.TailBeyond, res.Env.Jobs)
		fmt.Fprintf(w, "# timings scaled to the reference host speed %g: host speed %.4g at elasticity %g, set-up %.4g at %g\n",
			refKernelSpeed, res.HostSpeed, res.Elasticity, res.SetupSpeed, setupElasticity)
		raw := make([]string, 0, len(res.Raw))
		for n := range res.Raw {
			raw = append(raw, n)
		}
		sort.Strings(raw)
		for _, n := range raw {
			fmt.Fprintf(w, "# raw %-28s %16.6g %s\n", n, res.Raw[n], res.Metrics[n].Unit)
		}
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "# trace written to %s (open in https://ui.perfetto.dev)\n", res.TraceFile)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "# FAIL %s\n", e)
	}
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]metricValue)}
	for n, mv := range res.Metrics {
		if n != "error_rate" {
			line.Metrics[n] = mv
		}
	}
	data, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", data)
}

// pinAll regenerates the expected data of every workload.
func pinAll(path string) error {
	suite := workload.SuiteScaled(suiteScale)
	refs, err := computeReferences(suite)
	if err != nil {
		return err
	}
	e := &expectations{Scale: suiteScale}
	for _, w := range workloads {
		if err := pinWorkload(w, refs, e); err != nil {
			return err
		}
	}
	return e.write(path)
}
