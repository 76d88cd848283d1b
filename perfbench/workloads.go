package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/experiment"
	"dtnsim/internal/obs"
	"dtnsim/internal/routing"
	"dtnsim/internal/scenario"
)

// workload is one named input set. Every workload is built from a seed and
// driven only through the simulator's public, default-configured API.
type workload interface {
	// run builds and runs the workload once. traced attaches the layer
	// probes and records a cost trajectory.
	run(seed int64, traced bool) (rep, error)
	// setup times one set-up of the workload's engines, without running.
	setup(seed int64) (time.Duration, error)
	// setupSamples is how many set-ups to time beyond those the runs did.
	setupSamples() int
}

// rep is one measured run of a workload.
type rep struct {
	setup    time.Duration // zero when the run's set-up is not the workload's set-up
	wall     time.Duration
	tailMs   float64 // host ms per simulated second over the second half
	liveHeap uint64
	alloc    uint64
	outcome  any      // compared across repeats of one seed
	problems []string // failed output checks
	layers   metrics  // traced runs only
	traj     []checkpoint
}

// checkpoint is one window of a traced engine run's cost trajectory.
type checkpoint struct {
	SimMinutes     float64            `json:"sim_min"`
	MsPerSimS      float64            `json:"ms_per_sim_s"`
	BytesPerSimS   float64            `json:"bytes_per_sim_s"`
	PhaseMsPerSimS map[string]float64 `json:"phase_ms_per_sim_s"`
	BufferedMsgs   int                `json:"buffered_msgs"`
	TableRowsLive  uint64             `json:"table_rows_live"`
}

// paperSpec is Table 5.1's population — incentive scheme, 20 % selfish,
// 10 % malicious with low-quality content — at the given scale.
func paperSpec(nodes int, areaKm2 float64, d time.Duration) scenario.Spec {
	s := scenario.Default(core.SchemeIncentive)
	s.Nodes = nodes
	s.AreaKm2 = areaKm2
	s.Duration = d
	s.SelfishPercent = 20
	s.MaliciousPercent = 10
	s.MaliciousLowQuality = true
	return s
}

// pressureSpec is paperSpec with the Figure 5.6 class split and a 40-minute
// message interval, the generation rate that with 8 MB buffers evicts on
// nearly every insert.
func pressureSpec(nodes int, areaKm2 float64, d time.Duration) scenario.Spec {
	s := paperSpec(nodes, areaKm2, d)
	s.ClassSplit = true
	s.MeanMessageInterval = 40 * time.Minute
	return s
}

// table51Seeds and figsuiteSeeds are the scenario seeds those workloads
// run. Their cost moves with the scenario seed more than any bound the
// benchmark could allow: one Table 5.1 hour costs ±20 % from seed to seed,
// because routing cost grows with how far the first messages happen to
// spread, and the figure suite runs all 42 of its engines on one seed. Each
// list holds the ten seeds, of those tried (6–36 for table51, 1–34 for
// figsuite), whose run allocates closest to the median; allocation is
// deterministic, so the choice is blind to timing noise.
var (
	table51Seeds  = []int64{6, 8, 11, 16, 17, 27, 31, 32, 34, 35}
	figsuiteSeeds = []int64{3, 9, 13, 15, 16, 20, 25, 28, 30, 33}
)

// pickSeed maps the benchmark seed onto a scenario seed: seed 1 is the first
// of seeds, seed 2 the second, and so on round the list. With no list the
// benchmark seed is the scenario seed.
func pickSeed(seeds []int64, seed int64) int64 {
	n := int64(len(seeds))
	if n == 0 {
		return seed
	}
	return seeds[((seed-1)%n+n)%n]
}

// workloads are the benchmark's named workloads at full scale. README.md
// gives the reason for each.
var workloads = map[string]workload{
	"table51":  &engineWorkload{spec: paperSpec(500, 5, time.Hour), seeds: table51Seeds, checkpoint: 10 * time.Minute, extraSetups: 19},
	"pressure": &engineWorkload{spec: pressureSpec(500, 5, time.Hour), bufferBytes: 8 << 20, checkpoint: 10 * time.Minute, extraSetups: 19},
	"crowd20k": &engineWorkload{spec: paperSpec(20000, 200, 4*time.Minute), checkpoint: time.Minute, extraSetups: 2},
	"figsuite": &suiteWorkload{profile: experiment.BenchProfile, seeds: figsuiteSeeds, samples: 9},
}

// engineWorkload runs one engine over the spec's whole duration.
type engineWorkload struct {
	spec        scenario.Spec
	seeds       []int64       // scenario seeds the benchmark seed picks from; none: the seed itself
	bufferBytes int64         // Config.BufferCapacity when positive
	checkpoint  time.Duration // trajectory window of traced runs
	extraSetups int
}

func (w *engineWorkload) setupSamples() int { return w.extraSetups }

// build is the workload's set-up: scenario.Build plus core.NewEngine. A
// non-nil probe set is wired into the configuration before the engine is
// built.
func (w *engineWorkload) build(seed int64, p *probes) (*core.Engine, time.Duration, error) {
	spec := w.spec
	spec.Seed = pickSeed(w.seeds, seed)
	// Collect the previous engine first: it keeps set-up timings free of
	// its collection and the peak heap near one engine (580 MB at 20 000
	// nodes).
	runtime.GC()
	t := time.Now()
	cfg, nodes, err := scenario.Build(spec)
	if err != nil {
		return nil, 0, err
	}
	if w.bufferBytes > 0 {
		cfg.BufferCapacity = w.bufferBytes
	}
	if p != nil {
		inner := cfg.Router
		if inner == nil {
			inner = routing.NewChitChat()
		}
		cfg.Router, p.router = wrapRouter(inner)
		cfg.Observers = append(cfg.Observers, p.payments)
	}
	eng, err := core.NewEngine(cfg, nodes)
	return eng, time.Since(t), err
}

func (w *engineWorkload) setup(seed int64) (time.Duration, error) {
	_, d, err := w.build(seed, nil)
	return d, err
}

// marks lists the simulated instants a run pauses at: the half-way point
// (the tail window's start) and the end, plus every checkpoint when traced.
func (w *engineWorkload) marks(traced bool) []time.Duration {
	d := w.spec.Duration
	at := []time.Duration{d / 2, d}
	if traced {
		for c := w.checkpoint; c < d; c += w.checkpoint {
			at = append(at, c)
		}
	}
	slices.Sort(at)
	return slices.Compact(at)
}

func (w *engineWorkload) run(seed int64, traced bool) (rep, error) {
	var p *probes
	if traced {
		p = &probes{payments: &paymentCounter{}}
	}
	eng, setup, err := w.build(seed, p)
	if err != nil {
		return rep{}, err
	}
	r := rep{setup: setup}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc

	ctx := context.Background()
	half := w.spec.Duration / 2
	var now time.Duration
	var halfAt time.Time
	var last window
	if traced {
		last = window{snap: eng.Snapshot(), alloc: alloc0}
	}
	start := time.Now()
	for _, at := range w.marks(traced) {
		if err := eng.RunFor(ctx, at-now); err != nil {
			return rep{}, err
		}
		now = at
		if at == half {
			halfAt = time.Now()
		}
		if traced {
			r.traj = append(r.traj, last.advance(eng))
		}
	}
	end := time.Now()
	r.wall = end.Sub(start)
	r.tailMs = msPerSimS(end.Sub(halfAt).Seconds(), (w.spec.Duration - half).Seconds())
	runtime.ReadMemStats(&ms)
	r.alloc = ms.TotalAlloc - alloc0

	res := eng.Result()
	nodes := eng.Nodes()
	r.outcome = res
	r.problems = checkResult(res, nodes)
	if traced {
		r.layers = engineLayers(eng.Snapshot(), res, nodes, p, r.wall)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.liveHeap = ms.HeapAlloc
	runtime.KeepAlive(eng)
	return r, nil
}

// window carries the state at the previous trajectory checkpoint.
type window struct {
	snap  obs.Snapshot
	alloc uint64
}

// advance closes the window at the engine's current state and opens the
// next one.
func (w *window) advance(eng *core.Engine) checkpoint {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap := eng.Snapshot()
	d := snap.Sub(w.snap)
	c := checkpoint{
		SimMinutes:     snap.SimSeconds / 60,
		MsPerSimS:      msPerSimS(d.WallSeconds, d.SimSeconds),
		BytesPerSimS:   float64(ms.TotalAlloc-w.alloc) / d.SimSeconds,
		PhaseMsPerSimS: map[string]float64{},
		BufferedMsgs:   bufferedMsgs(eng.Nodes()),
		TableRowsLive:  snap.Counter("table_rows_live"),
	}
	for _, ph := range d.Phases {
		c.PhaseMsPerSimS[ph.Name] = msPerSimS(ph.Seconds, d.SimSeconds)
	}
	w.snap, w.alloc = snap, ms.TotalAlloc
	return c
}

// checkResult runs the output checks on one engine run.
func checkResult(res core.Result, nodes []*core.Node) []string {
	var bad []string
	if res.Delivered > res.Created {
		bad = append(bad, fmt.Sprintf("delivered %d > created %d", res.Delivered, res.Created))
	}
	if !(res.MDR >= 0 && res.MDR <= 1) {
		bad = append(bad, fmt.Sprintf("MDR %v outside [0, 1]", res.MDR))
	}
	for _, n := range nodes {
		if b := n.Wallet().Balance(); b < 0 {
			bad = append(bad, fmt.Sprintf("node %v wallet %v < 0", n.ID(), b))
			break
		}
	}
	return bad
}

func bufferedMsgs(nodes []*core.Node) int {
	sum := 0
	for _, n := range nodes {
		sum += n.Buffer().Len()
	}
	return sum
}

// suiteWorkload runs Figures 5.1/5.2, 5.3, 5.4 and 5.6 at a profile, in
// order, on one experiment pool of GOMAXPROCS slots — as cmd/dtnexp does.
type suiteWorkload struct {
	profile experiment.Profile
	seeds   []int64 // scenario seeds the benchmark seed picks from
	samples int
	runs    int // engines one suite builds, learnt from the first run
}

func (w *suiteWorkload) setupSamples() int { return w.samples }

// suiteOutcome is everything the figure functions return, compared across
// repeats of one seed.
type suiteOutcome struct {
	Tables []experiment.Table
	Fig51  []experiment.Fig51Point
	Fig53  []experiment.Fig53Point
	Fig54  []experiment.Fig54Series
	Fig56  []experiment.Fig56Point
}

func (w *suiteWorkload) run(seed int64, traced bool) (rep, error) {
	p := w.profile
	p.Seeds = []int64{pickSeed(w.seeds, seed)}
	slots := runtime.GOMAXPROCS(0)
	pool := experiment.NewPool(slots)
	defer pool.Close()
	ends := &runEnds{}
	payments := &paymentCounter{}
	observers := []obs.Observer{ends}
	if traced {
		observers = append(observers, payments)
	}
	ctx := experiment.WithPool(context.Background(), pool)
	ctx = experiment.WithObservation(ctx, experiment.Observation{Observers: observers})

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	t51, f51, err := experiment.Fig51(ctx, p)
	if err != nil {
		return rep{}, err
	}
	t53, f53, err := experiment.Fig53(ctx, p)
	if err != nil {
		return rep{}, err
	}
	t54, f54, err := experiment.Fig54(ctx, p)
	if err != nil {
		return rep{}, err
	}
	t56, f56, err := experiment.Fig56(ctx, p)
	if err != nil {
		return rep{}, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms)
	out := suiteOutcome{
		Tables: []experiment.Table{t51, t53, t54, t56},
		Fig51:  f51, Fig53: f53, Fig54: f54, Fig56: f56,
	}

	snaps := ends.all()
	w.runs = len(snaps)
	var runWall, simSeconds float64
	for _, s := range snaps {
		runWall += s.WallSeconds
		simSeconds += s.SimSeconds
	}
	r := rep{
		wall:     wall,
		tailMs:   msPerSimS(runWall, simSeconds),
		alloc:    ms.TotalAlloc - alloc0,
		outcome:  out,
		problems: checkSuite(out),
	}
	if traced {
		r.layers = suiteLayers(snaps, payments.n.Load(), slots, wall)
		return r, nil
	}
	// The suite keeps no engine once it returns, so its live heap is taken
	// from one run of the profile's Table 5.1 spec, held at its end. That
	// run also lets the engine checks see every wallet.
	eng, err := scenario.BuildEngine(w.baseSpec(seed))
	if err != nil {
		return rep{}, err
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		return rep{}, err
	}
	r.problems = append(r.problems, checkResult(res, eng.Nodes())...)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.liveHeap = ms.HeapAlloc
	runtime.KeepAlive(eng)
	return r, nil
}

// baseSpec is the profile's Table 5.1 spec, as the figure functions start
// from it.
func (w *suiteWorkload) baseSpec(seed int64) scenario.Spec {
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = w.profile.Nodes
	spec.AreaKm2 = w.profile.AreaKm2
	spec.Duration = w.profile.Duration
	spec.MeanMessageInterval = w.profile.MeanMessageInterval
	spec.Step = w.profile.Step
	spec.Seed = pickSeed(w.seeds, seed)
	return spec
}

// setup builds, without running, as many engines as one suite runs: the
// many-engine set-up cost of the suite.
func (w *suiteWorkload) setup(seed int64) (time.Duration, error) {
	spec := w.baseSpec(seed)
	t := time.Now()
	for i := 0; i < w.runs; i++ {
		if _, err := scenario.BuildEngine(spec); err != nil {
			return 0, err
		}
	}
	return time.Since(t), nil
}

// checkSuite runs the output checks the figure API allows: the suite
// exposes seed-averaged results, not engines, so wallets are checked
// through their mean.
func checkSuite(o suiteOutcome) []string {
	var avgs []experiment.Avg
	for _, pt := range o.Fig51 {
		avgs = append(avgs, pt.ChitChat, pt.Incentive)
	}
	for _, pt := range o.Fig53 {
		avgs = append(avgs, pt.Incentive)
	}
	for _, pt := range o.Fig56 {
		avgs = append(avgs, pt.ChitChat, pt.Incentive)
	}
	var bad []string
	for _, a := range avgs {
		for _, mdr := range append([]float64{a.MDR}, a.PriorityMDRs[:]...) {
			if !(mdr >= 0 && mdr <= 1) {
				bad = append(bad, fmt.Sprintf("MDR %v outside [0, 1]", mdr))
			}
		}
		if a.TokensMean < 0 {
			bad = append(bad, fmt.Sprintf("mean wallet %v < 0", a.TokensMean))
		}
	}
	for _, s := range o.Fig54 {
		if len(s.Samples) == 0 {
			bad = append(bad, fmt.Sprintf("Figure 5.4 series at %d%% malicious is empty", s.MaliciousPercent))
		}
	}
	return bad
}

func msPerSimS(wallSeconds, simSeconds float64) float64 {
	if simSeconds <= 0 {
		return math.NaN()
	}
	return 1000 * wallSeconds / simSeconds
}
