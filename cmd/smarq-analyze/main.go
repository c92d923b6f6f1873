// Command smarq-analyze is the postmortem half of the observability
// plane: it ingests the cycle-stamped JSONL event traces the runtime
// already emits (smarq-run -trace, smarq-bench -trace, per-tenant fleet
// traces) and reconstructs *why* a run behaved the way it did —
// compile-latency percentiles, queue-depth and cache-occupancy
// timelines, health-controller transition history, rollback-storm
// intervals, and a cycle-attribution breakdown.
//
// Usage:
//
//	smarq-analyze run.trace.jsonl
//	smarq-analyze fleet.trace.tenant0-swim.json fleet.trace.tenant1-equake.json
//	smarq-analyze -json run.trace.jsonl        # machine-readable, golden-diffable
//	smarq-analyze -storm-window 4096 -storm-count 8 chaos.trace.jsonl
//
// Traces are simulated-cycle-stamped and deterministic, so the report is
// a pure function of the trace bytes: identical traces produce
// byte-identical reports at any -json setting (the analyze-smoke CI gate
// relies on exactly this).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with a testable surface (0 ok, 1 runtime failure, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smarq-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the report as one deterministic JSON document")
	buckets := fs.Int("buckets", 16, "timeline resolution in buckets")
	stormWindow := fs.Int64("storm-window", 4096, "rollback-storm detection window in simulated cycles")
	stormCount := fs.Int("storm-count", 8, "rollbacks of one region within the window that flag a storm")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "smarq-analyze: no trace files (usage: smarq-analyze [flags] trace.jsonl...)")
		return 2
	}
	if *buckets < 1 || *stormWindow < 1 || *stormCount < 1 {
		fmt.Fprintln(stderr, "smarq-analyze: -buckets, -storm-window and -storm-count must be positive")
		return 2
	}

	cfg := analyzeConfig{
		Buckets:     *buckets,
		StormWindow: *stormWindow,
		StormCount:  *stormCount,
	}
	report, err := analyzeFiles(fs.Args(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "smarq-analyze:", err)
		return 1
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "smarq-analyze:", err)
			return 1
		}
		return 0
	}
	fmt.Fprint(stdout, report.Render())
	return 0
}

// analyzeConfig tunes the report.
type analyzeConfig struct {
	Buckets     int   `json:"buckets"`
	StormWindow int64 `json:"storm_window"`
	StormCount  int   `json:"storm_count"`
}

// event is one decoded trace line. The "to" key is kind-polymorphic — a
// tier name string on demote/promote, a numeric health level on health
// events — so it stays raw until the kind is known.
type event struct {
	Cycle  int64           `json:"cycle"`
	Ev     string          `json:"ev"`
	Run    int32           `json:"run"`
	Region *int64          `json:"region"`
	Tier   string          `json:"tier"`
	To     json.RawMessage `json:"to"`
	Cause  string          `json:"cause"`
	Cost   int64           `json:"cost"`
	Depth  *int64          `json:"depth"`
	From   *int64          `json:"from"`
	Name   string          `json:"name"`
}

// Report is the whole analysis: one entry per run (a solo trace is one
// run; a smarq-bench trace holds one per cell; fleet traces are one file
// per tenant), sorted by label for deterministic output.
type Report struct {
	Config analyzeConfig `json:"config"`
	Runs   []*RunReport  `json:"runs"`
}

// RunReport is one run's reconstruction.
type RunReport struct {
	Label       string           `json:"label"`
	Events      int64            `json:"events"`
	TotalCycles int64            `json:"total_cycles"`
	Counts      map[string]int64 `json:"counts"`

	CompileLatency LatencyReport `json:"compile_latency"`
	Attribution    Attribution   `json:"attribution"`
	QueueDepth     Timeline      `json:"queue_depth"`
	CacheOccupancy Timeline      `json:"cache_occupancy"`
	Health         []HealthMove  `json:"health,omitempty"`
	Storms         []Storm       `json:"storms,omitempty"`

	// accumulation state, never serialized (unexported)
	latencies []int64
	pending   map[int64]int64   // region -> background enqueue cycle
	live      map[int64]bool    // regions currently in the code cache
	occSample []int64           // flattened (cycle, occupancy) pairs
	depths    []int64           // flattened (cycle, depth) pairs
	rollbacks map[int64][]int64 // region -> rollback cycles, in order
	execute   int64
	rollback  int64
}

// LatencyReport is the percentile summary of enqueue→install latencies.
type LatencyReport struct {
	Count int64 `json:"count"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

// Attribution splits the run's simulated cycles: execute is committed
// region work, rollback is cycles burned on aborted speculation,
// interpret is everything else (interpreter plus synchronous compile
// overhead). CompileWait is the summed background enqueue→install
// latency — it overlaps execution, so it reports separately rather than
// summing into the split.
type Attribution struct {
	Total       int64 `json:"total"`
	Execute     int64 `json:"execute"`
	Rollback    int64 `json:"rollback"`
	Interpret   int64 `json:"interpret"`
	CompileWait int64 `json:"compile_wait"`
}

// Timeline is a fixed-resolution series over the run's cycles: Buckets[i]
// covers cycles [i*Total/N, (i+1)*Total/N). Queue depth buckets hold the
// bucket's maximum observed depth; occupancy buckets hold the live-region
// count at the bucket's last event.
type Timeline struct {
	Buckets []int64 `json:"buckets"`
	Peak    int64   `json:"peak"`
	Final   int64   `json:"final"`
}

// HealthMove is one degradation-ladder transition.
type HealthMove struct {
	Cycle int64  `json:"cycle"`
	From  string `json:"from"`
	To    string `json:"to"`
	Cause string `json:"cause,omitempty"`
}

// Storm is one detected rollback storm: at least the configured count of
// rollbacks of one region inside one detection window. Overlapping
// windows merge into a single interval.
type Storm struct {
	Region    int64 `json:"region"`
	Start     int64 `json:"start"`
	End       int64 `json:"end"`
	Rollbacks int   `json:"rollbacks"`
}

// healthLevelNames mirrors internal/health's ladder. The analyzer decodes
// raw numeric levels from the trace, so the mapping lives here rather
// than importing the package (traces are a stable external schema).
var healthLevelNames = []string{"normal", "no-speculation", "compile-off", "quarantine"}

func healthLevelName(v int64) string {
	if v >= 0 && v < int64(len(healthLevelNames)) {
		return healthLevelNames[v]
	}
	return fmt.Sprintf("level(%d)", v)
}

// analyzeFiles ingests every trace file and builds the report. Runs are
// keyed by file plus the in-file run ID; a KindMeta name refines the
// label when present.
func analyzeFiles(paths []string, cfg analyzeConfig) (*Report, error) {
	runs := map[string]*RunReport{}
	for _, path := range paths {
		if err := ingestFile(path, runs); err != nil {
			return nil, err
		}
	}
	report := &Report{Config: cfg, Runs: make([]*RunReport, 0, len(runs))}
	for _, rr := range runs {
		rr.finalize(cfg)
		report.Runs = append(report.Runs, rr)
	}
	sort.Slice(report.Runs, func(i, j int) bool {
		return report.Runs[i].Label < report.Runs[j].Label
	})
	return report, nil
}

func ingestFile(path string, runs map[string]*RunReport) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	base := filepath.Base(path)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return fmt.Errorf("%s:%d: %w (is this a JSONL trace? chrome traces are not analyzable)", path, lineNo, err)
		}
		switch {
		case e.Cycle < 0:
			return fmt.Errorf("%s:%d: negative cycle %d", path, lineNo, e.Cycle)
		case e.Cost < 0:
			return fmt.Errorf("%s:%d: negative cost %d", path, lineNo, e.Cost)
		case e.Depth != nil && *e.Depth < 0:
			return fmt.Errorf("%s:%d: negative depth %d", path, lineNo, *e.Depth)
		}
		key := base
		if e.Run != 0 {
			key = fmt.Sprintf("%s#run%d", base, e.Run)
		}
		rr := runs[key]
		if rr == nil {
			rr = newRunReport(key)
			runs[key] = rr
		}
		// A run's events are emitted in simulated-cycle order, so its
		// running maximum is the previous event's cycle.
		if e.Cycle < rr.TotalCycles {
			return fmt.Errorf("%s:%d: cycle %d is before the previous event's cycle %d in run %s",
				path, lineNo, e.Cycle, rr.TotalCycles, key)
		}
		rr.ingest(&e)
	}
	return sc.Err()
}

func newRunReport(label string) *RunReport {
	return &RunReport{
		Label:     label,
		Counts:    map[string]int64{},
		pending:   map[int64]int64{},
		live:      map[int64]bool{},
		rollbacks: map[int64][]int64{},
	}
}

func (rr *RunReport) ingest(e *event) {
	rr.Events++
	rr.Counts[e.Ev]++
	if e.Cycle > rr.TotalCycles {
		rr.TotalCycles = e.Cycle
	}
	region := int64(-1)
	if e.Region != nil {
		region = *e.Region
	}
	switch e.Ev {
	case "meta":
		if e.Name != "" {
			rr.Label = rr.Label + " (" + e.Name + ")"
		}
	case "compile-enqueue":
		rr.pending[region] = e.Cycle
		if e.Depth != nil {
			rr.depths = append(rr.depths, e.Cycle, *e.Depth)
		}
	case "compile-cancel":
		delete(rr.pending, region)
	case "compile":
		if enq, ok := rr.pending[region]; ok {
			rr.latencies = append(rr.latencies, e.Cycle-enq)
			delete(rr.pending, region)
		} else {
			// Synchronous compilation installs at the enqueue instant.
			rr.latencies = append(rr.latencies, 0)
		}
		rr.live[region] = true
		rr.occSample = append(rr.occSample, e.Cycle, int64(len(rr.live)))
	case "evict", "drop":
		delete(rr.live, region)
		rr.occSample = append(rr.occSample, e.Cycle, int64(len(rr.live)))
	case "commit":
		rr.execute += e.Cost
	case "rollback":
		rr.rollback += e.Cost
		rr.rollbacks[region] = append(rr.rollbacks[region], e.Cycle)
	case "health":
		from, to := int64(-1), int64(-1)
		if e.From != nil {
			from = *e.From
		}
		// health's "to" payload is numeric (demote/promote reuse the key
		// as a tier-name string, which never reaches this branch).
		_ = json.Unmarshal(e.To, &to)
		rr.Health = append(rr.Health, HealthMove{
			Cycle: e.Cycle,
			From:  healthLevelName(from),
			To:    healthLevelName(to),
			Cause: e.Cause,
		})
	}
}

// finalize turns the accumulated state into the report fields.
func (rr *RunReport) finalize(cfg analyzeConfig) {
	rr.CompileLatency = latencyPercentiles(rr.latencies)
	interpret := rr.TotalCycles - rr.execute - rr.rollback
	if interpret < 0 {
		interpret = 0
	}
	var wait int64
	for _, l := range rr.latencies {
		wait += l
	}
	rr.Attribution = Attribution{
		Total:       rr.TotalCycles,
		Execute:     rr.execute,
		Rollback:    rr.rollback,
		Interpret:   interpret,
		CompileWait: wait,
	}
	rr.QueueDepth = timeline(rr.depths, rr.TotalCycles, cfg.Buckets, true)
	rr.CacheOccupancy = timeline(rr.occSample, rr.TotalCycles, cfg.Buckets, false)
	rr.Storms = detectStorms(rr.rollbacks, cfg.StormWindow, cfg.StormCount)
}

// latencyPercentiles summarizes the latency sample (nearest-rank on the
// sorted sample, the same convention as the fleet report).
func latencyPercentiles(lat []int64) LatencyReport {
	if len(lat) == 0 {
		return LatencyReport{}
	}
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pick := func(q float64) int64 { return s[int(q*float64(len(s)-1))] }
	return LatencyReport{
		Count: int64(len(s)),
		P50:   pick(0.50),
		P90:   pick(0.90),
		P99:   pick(0.99),
		Max:   s[len(s)-1],
	}
}

// timeline folds (cycle, value) samples into fixed buckets. With max set,
// a bucket holds its largest sample (queue depth); otherwise it holds the
// last sample (occupancy is a level, not a rate), with gaps carrying the
// previous bucket's level forward.
func timeline(samples []int64, total int64, buckets int, useMax bool) Timeline {
	tl := Timeline{Buckets: make([]int64, buckets)}
	if total <= 0 {
		total = 1
	}
	seen := make([]bool, buckets)
	for i := 0; i+1 < len(samples); i += 2 {
		cycle, v := samples[i], samples[i+1]
		b := mulDiv(uint64(cycle), uint64(buckets), uint64(total)+1)
		if v > tl.Peak {
			tl.Peak = v
		}
		if useMax {
			if v > tl.Buckets[b] {
				tl.Buckets[b] = v
			}
		} else {
			tl.Buckets[b] = v
		}
		seen[b] = true
		tl.Final = v
	}
	if !useMax {
		// Carry levels across empty buckets so the timeline reads as the
		// state over time rather than zeroing between events.
		var level int64
		for b := range tl.Buckets {
			if seen[b] {
				level = tl.Buckets[b]
			} else {
				tl.Buckets[b] = level
			}
		}
	}
	return tl
}

// mulDiv returns a*b/c in 128-bit intermediate precision, so huge trace
// cycles cannot overflow the product. Callers guarantee a <= c, which keeps
// the quotient within b.
func mulDiv(a, b, c uint64) int {
	hi, lo := bits.Mul64(a, b)
	q, _ := bits.Div64(hi, lo, c)
	return int(q)
}

// detectStorms slides a window over each region's rollback cycles: any
// span of stormCount rollbacks inside stormWindow cycles flags a storm,
// overlapping flagged spans merge into one interval, and Rollbacks counts
// every rollback inside the merged interval. Regions report in ascending
// order (rollback cycles arrive already sorted — the trace is ordered).
func detectStorms(byRegion map[int64][]int64, window int64, count int) []Storm {
	regions := make([]int64, 0, len(byRegion))
	for r := range byRegion {
		regions = append(regions, r)
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })
	var out []Storm
	for _, region := range regions {
		cycles := byRegion[region]
		lo := 0
		for hi := range cycles {
			for cycles[hi]-cycles[lo] > window {
				lo++
			}
			if hi-lo+1 < count {
				continue
			}
			start, end := cycles[lo], cycles[hi]
			if n := len(out); n > 0 && out[n-1].Region == region && start <= out[n-1].End {
				if end > out[n-1].End {
					out[n-1].End = end
				}
				continue
			}
			out = append(out, Storm{Region: region, Start: start, End: end})
		}
	}
	for i := range out {
		st := &out[i]
		for _, c := range byRegion[st.Region] {
			if c >= st.Start && c <= st.End {
				st.Rollbacks++
			}
		}
	}
	return out
}

// Render is the human-oriented text report.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "smarq-analyze: %d run(s)\n", len(r.Runs))
	for _, rr := range r.Runs {
		fmt.Fprintf(&sb, "\n== %s ==\n", rr.Label)
		fmt.Fprintf(&sb, "  events: %d over %d simulated cycles\n", rr.Events, rr.TotalCycles)

		keys := make([]string, 0, len(rr.Counts))
		for k := range rr.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%d", k, rr.Counts[k]))
		}
		fmt.Fprintf(&sb, "  counts: %s\n", strings.Join(parts, " "))

		a := rr.Attribution
		pct := func(n int64) float64 {
			if a.Total == 0 {
				return 0
			}
			return 100 * float64(n) / float64(a.Total)
		}
		fmt.Fprintf(&sb, "  cycles: execute %d (%.1f%%), rollback %d (%.1f%%), interpret+other %d (%.1f%%); compile-wait %d (overlapped)\n",
			a.Execute, pct(a.Execute), a.Rollback, pct(a.Rollback), a.Interpret, pct(a.Interpret), a.CompileWait)

		if l := rr.CompileLatency; l.Count > 0 {
			fmt.Fprintf(&sb, "  compile latency: %d installs, p50=%d p90=%d p99=%d max=%d cycles\n",
				l.Count, l.P50, l.P90, l.P99, l.Max)
		}
		fmt.Fprintf(&sb, "  queue depth:     %s peak=%d\n", sparkline(rr.QueueDepth.Buckets), rr.QueueDepth.Peak)
		fmt.Fprintf(&sb, "  cache occupancy: %s peak=%d final=%d\n",
			sparkline(rr.CacheOccupancy.Buckets), rr.CacheOccupancy.Peak, rr.CacheOccupancy.Final)

		for _, hm := range rr.Health {
			cause := ""
			if hm.Cause != "" {
				cause = " (" + hm.Cause + ")"
			}
			fmt.Fprintf(&sb, "  health @%d: %s -> %s%s\n", hm.Cycle, hm.From, hm.To, cause)
		}
		for _, st := range rr.Storms {
			fmt.Fprintf(&sb, "  storm: region B%d, %d rollbacks in cycles [%d, %d]\n",
				st.Region, st.Rollbacks, st.Start, st.End)
		}
	}
	return sb.String()
}

// sparkline renders a bucket series as eight-level bars.
func sparkline(buckets []int64) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	var max int64
	for _, v := range buckets {
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	for _, v := range buckets {
		i := 0
		if max > 0 {
			i = mulDiv(uint64(v), uint64(len(levels)-1), uint64(max))
		}
		sb.WriteRune(levels[i])
	}
	return sb.String()
}
