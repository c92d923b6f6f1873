package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"smarq/internal/compilequeue"
	"smarq/internal/dynopt"
	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/harness"
	"smarq/internal/health"
	"smarq/internal/workload"
)

const (
	// suiteScale multiplies every program's iteration counts
	// (workload.SuiteScaled) so one pass of the 14 programs takes about a
	// second on a 2-core host: long enough that compile is amortized the
	// way the paper's long runs amortize it, short enough for 10-30 passes
	// per measured phase.
	suiteScale = 8
	// chaosVariants is how many distinct host-chaos inputs each churn
	// program has. Every pass runs all of them, so a run's totals do not
	// depend on which chaos draws the seed happens to pick.
	chaosVariants = 16
	// setupReps is how many set-up samples a run takes, after setupWarmup
	// untimed ones; setup_s is their median. A sample is the mean time of
	// setupBatch back-to-back set-ups, run after a forced GC with the
	// collector off, so no collection of earlier garbage lands in it. The
	// host speed is read after every setupSpeedEvery-th sample.
	setupReps       = 101
	setupWarmup     = 5
	setupBatch      = 10
	setupSpeedEvery = 2
	// speedEvery is how often the measured phase reads the host speed
	// (calib.go), between jobs or fleet rounds; the readings are left out
	// of the pass times.
	speedEvery = 250 * time.Millisecond
	// windowJobs is the fewest jobs in a timing window: the fewest
	// consecutive whole passes holding at least this many jobs, so each
	// window's p90 has at least ten jobs beyond it. The timings are medians
	// over windows, which keeps a burst of host load that covers fewer
	// than half of a run's windows out of its figures.
	windowJobs = 100
	// The fleet shape: 4 tenants running two programs, two tenants each,
	// over a 2-worker shared compile pool.
	fleetTenants = 4
	fleetWorkers = 2
)

// workloadSpec is one benchmark workload.
type workloadSpec struct {
	name string
	// fleet selects the closed loop of harness.RunFleet rounds instead of
	// one System at a time.
	fleet bool
	// variants is the number of inputs per program; a pass runs each.
	variants int
	// config is program i's dynopt configuration under input variant v.
	config func(i, variant int) dynopt.Config
	// poolWorkers sizes the compile pool the traced replay drives.
	poolWorkers int
	// busyThreads is how many goroutines the workload keeps running, and
	// so how many the host-speed gauge runs its kernel on; elasticity is
	// how its speed follows the gauge's (calib.go). Execution-bound steady
	// and fleet slow more in a slow period of the host than churn, which
	// spends most of its time interpreting and compiling.
	busyThreads int
	elasticity  float64
}

// The workloads, and why each exists (README.md has the profiles behind
// these reasons):
//   - steady: the paper's long-running regime; region execution and the
//     alias detector dominate and compile is amortized.
//   - churn: host chaos with the health ladder, background compile and the
//     private memo; rollback, recompile and memo paths dominate.
//   - fleet: 4 tenants on 2 programs over a shared 2-worker pool and
//     sharded code cache; cross-tenant single-flight on 2 contended cores.
var workloads = []*workloadSpec{
	{
		name:        "steady",
		variants:    1,
		config:      func(int, int) dynopt.Config { return dynopt.ConfigSMARQ(64) },
		poolWorkers: 1,
		busyThreads: 1,
		elasticity:  1.75,
	},
	{
		name:        "churn",
		variants:    chaosVariants,
		config:      churnConfig,
		poolWorkers: 1,
		busyThreads: 1,
		elasticity:  1,
	},
	{
		name:        "fleet",
		fleet:       true,
		variants:    1,
		config:      fleetConfig,
		poolWorkers: fleetWorkers,
		busyThreads: fleetWorkers,
		elasticity:  1.75,
	},
}

func workloadByName(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want steady, churn or fleet)", name)
}

func churnConfig(i, variant int) dynopt.Config {
	cfg := dynopt.ConfigSMARQ(64)
	cfg.Chaos = faultinject.DefaultHost(int64(variant*100 + i + 1))
	cfg.Health = health.DefaultConfig()
	cfg.Compile.Workers = 1
	cfg.Compile.Memoize = true
	return cfg
}

// fleetConfig is the configuration RunFleet gives every tenant, minus the
// shared pool and cache, which belong to the round.
func fleetConfig(int, int) dynopt.Config {
	cfg, err := harness.ParseConfig(harness.CfgSMARQ64)
	if err != nil {
		panic(err)
	}
	cfg.Compile.Workers = fleetWorkers
	return cfg
}

func fleetRound(a, b string) harness.FleetConfig {
	return harness.FleetConfig{
		Tenants:        fleetTenants,
		Mix:            []string{a, b},
		Config:         harness.CfgSMARQ64,
		CompileWorkers: fleetWorkers,
		Scale:          suiteScale,
	}
}

// measurement is everything one untraced measured phase records.
type measurement struct {
	spec   *workloadSpec
	seed   int64
	suite  []workload.Benchmark
	refs   []reference
	expect *expectations

	setupS []float64
	// setupSpeed is the median host speed read during set-up, and speeds
	// the readings of the measured phase, the last at lastSpeed.
	setupSpeed float64
	speeds     []float64
	lastSpeed  time.Time
	jobMS      []float64
	passes     int
	// passSamples holds one entry per pass of the measured phase.
	passSamples []passSample
	wall        time.Duration
	cpu         time.Duration
	insts       int64
	cycles      int64
	allocBytes  uint64

	attempted, failed int
	errs              []string

	// firstPass holds every job's Stats from pass 0. Every pass of one
	// seed runs the same jobs, so counts taken from it repeat exactly.
	firstPass []dynopt.Stats
	// jobWall is the summed wall time of every job.
	jobWall time.Duration
	// rounds holds one entry per fleet round.
	rounds []fleetRoundSample
}

// passSample is one whole pass: its wall time, the guest instructions it
// retired and its jobs' wall times, m.jobMS[firstJob:endJob].
type passSample struct {
	wall             time.Duration
	insts            int64
	firstJob, endJob int
}

// openPass is a pass in progress. paused is the time spent reading the
// host speed, which is left out of the pass's wall time.
type openPass struct {
	start    time.Time
	insts0   int64
	firstJob int
	paused   time.Duration
}

func (m *measurement) beginPass() *openPass {
	return &openPass{start: time.Now(), insts0: m.insts, firstJob: len(m.jobMS)}
}

// readSpeed reads the host speed if speedEvery has gone by since the last
// reading, pausing p.
func (m *measurement) readSpeed(p *openPass) {
	if time.Since(m.lastSpeed) < speedEvery {
		return
	}
	t0 := time.Now()
	m.speeds = append(m.speeds, hostSpeed(m.spec.busyThreads))
	m.lastSpeed = time.Now()
	p.paused += m.lastSpeed.Sub(t0)
}

func (m *measurement) endPass(p *openPass) {
	m.readSpeed(p)
	m.passSamples = append(m.passSamples, passSample{
		wall:     time.Since(p.start) - p.paused,
		insts:    m.insts - p.insts0,
		firstJob: p.firstJob,
		endJob:   len(m.jobMS),
	})
	m.passes++
}

// timeSetup takes the set-up samples (see setupReps) and reads the host
// speed between them. setup returns what to do after its timing stops.
func (m *measurement) timeSetup(setup func() (cleanup func())) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var speeds []float64
	for rep := 0; rep < setupWarmup+setupReps; rep++ {
		runtime.GC()
		var d time.Duration
		for b := 0; b < setupBatch; b++ {
			t0 := time.Now()
			cleanup := setup()
			d += time.Since(t0)
			cleanup()
		}
		if rep >= setupWarmup {
			m.setupS = append(m.setupS, d.Seconds()/setupBatch)
		}
		if rep%setupSpeedEvery == 0 {
			speeds = append(speeds, hostSpeed(1))
		}
	}
	runtime.GC()
	m.setupSpeed = median(speeds)
}

type fleetRoundSample struct {
	pass     int
	wall     time.Duration
	cpu      time.Duration
	dedupe   float64
	compiles int64
	spread   float64
}

func (m *measurement) fail(err error) {
	m.failed++
	if len(m.errs) < 20 {
		m.errs = append(m.errs, err.Error())
	}
}

// recordJob checks one finished job and adds it to the sample.
func (m *measurement) recordJob(pass, prog, variant int, wall time.Duration, halted bool, st *guest.State, digest uint64, stats *dynopt.Stats) {
	m.attempted++
	name := m.suite[prog].Name
	want, ok := m.expect.lookup(m.spec.name, variant, name)
	if err := checkJob(name, halted, st, digest, stats, &m.refs[prog], want, ok); err != nil {
		m.fail(err)
	}
	m.jobMS = append(m.jobMS, float64(wall.Nanoseconds())/1e6)
	m.jobWall += wall
	m.insts += stats.GuestInsts
	m.cycles += stats.TotalCycles
	if pass == 0 {
		m.firstPass = append(m.firstPass, *stats)
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs the workload's set-up repetitions and then whole passes
// until the measured phase has lasted d (at least one pass).
func measure(w *workloadSpec, seed int64, d time.Duration, refs []reference, expect *expectations) *measurement {
	m := &measurement{
		spec:   w,
		seed:   seed,
		suite:  workload.SuiteScaled(suiteScale),
		refs:   refs,
		expect: expect,
	}
	// The first reading allocates the kernel's working sets, which must not
	// count in the measured phase's allocation.
	hostSpeed(w.busyThreads)
	if w.fleet {
		m.runFleet(d)
	} else {
		m.runSuite(d)
	}
	return m
}

// job is one program under one of its input variants.
type job struct{ prog, variant int }

func (m *measurement) runSuite(d time.Duration) {
	n := len(m.suite)
	progs := make([]*guest.Program, n)
	m.timeSetup(func() func() {
		for i, bm := range m.suite {
			progs[i] = bm.Build()
			dynopt.New(progs[i], &guest.State{}, guest.NewMemory(bm.MemSize), m.spec.config(i, 0))
		}
		return func() {}
	})

	var jobs []job
	cfgs := make(map[job]dynopt.Config)
	for v := 0; v < m.spec.variants; v++ {
		for i := range m.suite {
			j := job{i, v}
			jobs = append(jobs, j)
			cfgs[j] = m.spec.config(i, v)
		}
	}
	rng := rand.New(rand.NewSource(m.seed))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		p := m.beginPass()
		rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
		for _, j := range jobs {
			bm := &m.suite[j.prog]
			sys := dynopt.New(progs[j.prog], &guest.State{}, guest.NewMemory(bm.MemSize), cfgs[j])
			t0 := time.Now()
			halted, err := sys.Run(bm.MaxInsts)
			wall := time.Since(t0)
			if err != nil {
				m.attempted++
				m.fail(fmt.Errorf("%s: %w", bm.Name, err))
				continue
			}
			m.recordJob(pass, j.prog, j.variant, wall, halted, sys.State(), sys.Mem().Digest(), &sys.Stats)
			m.readSpeed(p)
		}
		m.endPass(p)
	}
	m.wall = time.Since(start)
	m.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
}

func (m *measurement) runFleet(d time.Duration) {
	n := len(m.suite)
	m.timeSetup(func() func() {
		pool := compilequeue.NewPool(fleetWorkers)
		cache := dynopt.NewCodeCache(dynopt.CodeCacheOptions{})
		for i, bm := range m.suite {
			cfg := m.spec.config(i, 0)
			cfg.Compile.SharedPool = pool
			cfg.Compile.SharedCache = cache
			dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
		}
		return pool.Close
	})

	index := make(map[string]int, n)
	for i, bm := range m.suite {
		index[bm.Name] = i
	}
	rng := rand.New(rand.NewSource(m.seed))

	// One untimed round, diffed tenant by tenant against solo runs.
	first := rng.Perm(n)
	fc := fleetRound(m.suite[first[0]].Name, m.suite[first[1]].Name)
	m.attempted++
	if res, err := harness.RunFleet(fc); err != nil {
		m.fail(fmt.Errorf("verification round: %w", err))
	} else if err := harness.VerifyFleet(fc, res); err != nil {
		m.fail(fmt.Errorf("verification round: %w", err))
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		p := m.beginPass()
		perm := rng.Perm(n)
		for r := 0; r+1 < n; r += 2 {
			fc := fleetRound(m.suite[perm[r]].Name, m.suite[perm[r+1]].Name)
			rc0 := cpuTime()
			res, err := harness.RunFleet(fc)
			rcpu := cpuTime() - rc0
			if err != nil {
				m.attempted += fleetTenants
				m.fail(fmt.Errorf("fleet round: %w", err))
				continue
			}
			lo, hi := res.Tenants[0].Wall, res.Tenants[0].Wall
			for k := range res.Tenants {
				ft := &res.Tenants[k]
				lo, hi = min(lo, ft.Wall), max(hi, ft.Wall)
				m.recordJob(pass, index[ft.Bench], 0, ft.Wall, ft.Halted, &ft.State, ft.MemDigest, &ft.Stats)
			}
			m.rounds = append(m.rounds, fleetRoundSample{
				pass:     pass,
				wall:     res.Wall,
				cpu:      rcpu,
				dedupe:   100 * res.DedupeRate(),
				compiles: res.Cache.Compiles,
				spread:   ratio(float64(hi), float64(lo)),
			})
			m.readSpeed(p)
		}
		m.endPass(p)
	}
	m.wall = time.Since(start)
	m.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
}

// windows groups the measured passes into timing windows: runs of
// consecutive whole passes holding at least windowJobs jobs. Passes left
// over at the end that do not fill a window join the last one.
func (m *measurement) windows() [][]passSample {
	var ws [][]passSample
	jobs := 0
	for _, p := range m.passSamples {
		if len(ws) == 0 || jobs >= windowJobs {
			ws = append(ws, nil)
			jobs = 0
		}
		ws[len(ws)-1] = append(ws[len(ws)-1], p)
		jobs += p.endJob - p.firstJob
	}
	if n := len(ws); n > 1 && jobs < windowJobs {
		ws[n-2] = append(ws[n-2], ws[n-1]...)
		ws = ws[:n-1]
	}
	return ws
}

// windowFigure is one window's raw timings, kept in the result file.
type windowFigure struct {
	Passes      int     `json:"passes"`
	Jobs        int     `json:"jobs"`
	InstsPerSec float64 `json:"guest_insts_per_s"`
	P50MS       float64 `json:"job_ms_p50"`
	TailMS      float64 `json:"job_ms_tail"`
	TailPct     float64 `json:"tail_percentile"`
	TailBeyond  int     `json:"tail_samples_beyond"`
}

// figure computes one window's timings.
func (m *measurement) figure(passes []passSample) windowFigure {
	var wall time.Duration
	var insts int64
	var jobMS []float64
	for _, p := range passes {
		wall += p.wall
		insts += p.insts
		jobMS = append(jobMS, m.jobMS[p.firstJob:p.endJob]...)
	}
	pct, tailMS, beyond := tail(jobMS)
	return windowFigure{
		Passes:      len(passes),
		Jobs:        len(jobMS),
		InstsPerSec: ratio(float64(insts), wall.Seconds()),
		P50MS:       median(jobMS),
		TailMS:      tailMS,
		TailPct:     pct,
		TailBeyond:  beyond,
	}
}

// endToEndResult is the end-to-end metrics of a measured phase, the same
// timings unscaled, the host speeds they were scaled by, and every
// window's figures.
type endToEndResult struct {
	metrics    map[string]float64
	raw        map[string]float64
	hostSpeed  float64
	setupSpeed float64
	windows    []windowFigure
}

// endToEnd computes the user-visible metrics of the measured phase. A
// timing is the median over windows, scaled to the reference host by the
// median host speed read during the measured phase (set-up by that read
// during set-up).
func (m *measurement) endToEnd() endToEndResult {
	r := endToEndResult{hostSpeed: median(m.speeds), setupSpeed: m.setupSpeed}
	var rates, p50s, tails []float64
	for _, passes := range m.windows() {
		f := m.figure(passes)
		r.windows = append(r.windows, f)
		rates = append(rates, f.InstsPerSec)
		p50s = append(p50s, f.P50MS)
		tails = append(tails, f.TailMS)
	}
	r.raw = map[string]float64{
		"guest_insts_per_s": median(rates),
		"job_ms_p50":        median(p50s),
		"job_ms_tail":       median(tails),
		"setup_s":           median(m.setupS),
	}
	run, setup := speedFactor(r.hostSpeed, m.spec.elasticity), speedFactor(r.setupSpeed, setupElasticity)
	kinst := float64(m.insts) / 1000
	r.metrics = map[string]float64{
		"guest_insts_per_s":     ratio(r.raw["guest_insts_per_s"], run),
		"job_ms_p50":            r.raw["job_ms_p50"] * run,
		"job_ms_tail":           r.raw["job_ms_tail"] * run,
		"setup_s":               r.raw["setup_s"] * setup,
		"sim_cpi":               ratio(float64(m.cycles), float64(m.insts)),
		"alloc_bytes_per_kinst": ratio(float64(m.allocBytes), kinst),
		"error_rate":            ratio(float64(m.failed), float64(m.attempted)),
	}
	return r
}

// pinWorkload runs one pass of every program for each input variant and
// returns the pinned stats, after checking each job against its
// reference. It is how expected.json is regenerated.
func pinWorkload(w *workloadSpec, refs []reference, e *expectations) error {
	suite := workload.SuiteScaled(suiteScale)
	for v := 0; v < w.variants; v++ {
		for i, bm := range suite {
			var (
				halted bool
				st     guest.State
				digest uint64
				stats  dynopt.Stats
			)
			if w.fleet {
				// A tenant's pinned stats equal its solo run's
				// (harness.VerifyFleet), so one solo tenant pins them.
				fc := fleetRound(bm.Name, bm.Name)
				fc.Tenants = 1
				res, err := harness.RunFleet(fc)
				if err != nil {
					return err
				}
				ft := &res.Tenants[0]
				halted, st, digest, stats = ft.Halted, ft.State, ft.MemDigest, ft.Stats
			} else {
				sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), w.config(i, v))
				var err error
				if halted, err = sys.Run(bm.MaxInsts); err != nil {
					return fmt.Errorf("%s/%s: %w", w.name, bm.Name, err)
				}
				st, digest, stats = *sys.State(), sys.Mem().Digest(), sys.Stats
			}
			p := pinOf(&stats)
			if err := checkJob(bm.Name, halted, &st, digest, &stats, &refs[i], p, true); err != nil {
				return fmt.Errorf("%s variant %d: %w", w.name, v, err)
			}
			e.set(w.name, v, bm.Name, p)
		}
	}
	return nil
}
