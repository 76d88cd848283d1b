package experiment

import (
	"context"
	"runtime"
	"sync"

	"dtnsim/internal/core"
	"dtnsim/internal/scenario"
)

// Pool is the bounded scheduler behind every sweep in this package. Each
// experiment flattens its parameter grid into independent jobs of one engine
// run each — (sweep point × scheme × seed) — and submits them all at once;
// the pool executes at most `workers` runs concurrently, shared across the
// whole suite, so `dtnexp -exp all` keeps every core busy without
// oversubscribing when several sweeps queue work back to back.
//
// The cap is a counting semaphore: a job holds one of `workers` tokens
// while it runs, so `-parallel 1` really is the sequential baseline. A job
// waiting for a token gives up as soon as its context is cancelled. Nested
// submission is not supported: a job must not submit work to its own pool
// and wait for it, since the job's token is not released while it waits.
//
// Results land in pre-indexed slots owned by the submitter and are
// aggregated in submission order after the group returns, so every printed
// table is bit-for-bit identical to the sequential output regardless of the
// order jobs happen to finish in.
type Pool struct {
	tokens   chan struct{}
	progress *Progress
}

// NewPool returns a pool with the given concurrency cap (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{tokens: make(chan struct{}, workers)}
}

// SetProgress attaches an optional live reporter; every subsequent job
// submission and completion updates it. Call before submitting work.
func (p *Pool) SetProgress(pr *Progress) { p.progress = pr }

// Close is a no-op: the pool starts no goroutines and holds nothing to
// release. It remains so callers can keep deferring it.
func (p *Pool) Close() {}

// poolJob is one unit of pool work: the function to run and its simulated
// span, credited to the progress reporter if it succeeds.
type poolJob struct {
	simSeconds float64
	run        func(ctx context.Context) error
}

// do runs j once it holds a token, or returns ctx's error if ctx is
// cancelled first. Every job counts toward the reporter's Done; only a
// job that succeeded credits its simulated span, because a failed or
// cancelled one did not simulate it.
func (p *Pool) do(ctx context.Context, j poolJob) error {
	err := p.acquire(ctx)
	if err == nil {
		err = j.run(ctx)
		<-p.tokens
	}
	if p.progress != nil {
		credit := j.simSeconds
		if err != nil {
			credit = 0
		}
		p.progress.complete(credit)
	}
	return err
}

// acquire takes a token, or returns ctx's error if ctx is cancelled first.
func (p *Pool) acquire(ctx context.Context) error {
	select {
	case p.tokens <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	// Both cases may have been ready: a cancelled context never starts a job.
	if err := ctx.Err(); err != nil {
		<-p.tokens
		return err
	}
	return nil
}

// runAll runs every job on its own goroutine and waits for them all. The
// first failure cancels the rest: jobs still waiting for a token return at
// once, running ones see the cancelled context. It returns the first error.
func (p *Pool) runAll(ctx context.Context, jobs []poolJob) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if p.progress != nil {
		p.progress.add(len(jobs))
	}
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.do(ctx, j); err != nil {
				once.Do(func() {
					first = err
					cancel()
				})
			}
		}()
	}
	wg.Wait()
	return first
}

// Run executes fn as one pool job on the caller's goroutine and blocks
// until it completes, returning fn's error (or ctx's, if it was cancelled
// before a token was free). dtnserved submits each simulation run this
// way, so HTTP-created runs and batch sweeps share one concurrency cap.
// simSeconds is the job's simulated span, credited to the progress
// reporter if fn succeeds.
func (p *Pool) Run(ctx context.Context, simSeconds float64, fn func(ctx context.Context) error) error {
	if p.progress != nil {
		p.progress.add(1)
	}
	return p.do(ctx, poolJob{simSeconds: simSeconds, run: fn})
}

// poolKey carries the suite-wide Pool through a context.
type poolKey struct{}

// WithPool returns a context whose experiment runs execute on p. cmd/dtnexp
// creates one pool for the whole suite and passes it down this way, so the
// concurrency cap holds across every figure, ablation, and sweep.
func WithPool(ctx context.Context, p *Pool) context.Context {
	return context.WithValue(ctx, poolKey{}, p)
}

func poolFrom(ctx context.Context) *Pool {
	p, _ := ctx.Value(poolKey{}).(*Pool)
	return p
}

// runJob is one independent engine execution: a fully-seeded spec plus an
// optional post-build config override (buffer pressure, sensitivity knobs).
type runJob struct {
	spec  scenario.Spec
	tweak func(*core.Config)
}

// seedJobs expands spec into one job per seed, all sharing tweak.
func seedJobs(spec scenario.Spec, seeds []int64, tweak func(*core.Config)) []runJob {
	jobs := make([]runJob, len(seeds))
	for i, seed := range seeds {
		s := spec
		s.Seed = seed
		jobs[i] = runJob{spec: s, tweak: tweak}
	}
	return jobs
}

// runJobs executes every job — on the context's Pool when present, else on a
// transient GOMAXPROCS-bounded pool — and returns results indexed like jobs,
// so aggregation order never depends on completion order. On any failure the
// remaining jobs are cancelled and the first error is returned; a cancelled
// ctx surfaces as ctx.Err().
func runJobs(ctx context.Context, jobs []runJob) ([]core.Result, error) {
	p := poolFrom(ctx)
	if p == nil {
		p = NewPool(runtime.GOMAXPROCS(0))
	}
	results := make([]core.Result, len(jobs))
	work := make([]poolJob, len(jobs))
	for i, rj := range jobs {
		work[i] = poolJob{simSeconds: rj.spec.Duration.Seconds(), run: func(ctx context.Context) (err error) {
			results[i], err = runOne(ctx, rj)
			return err
		}}
	}
	if err := p.runAll(ctx, work); err != nil {
		return nil, err
	}
	return results, nil
}

// runOne builds and runs a single engine, attaching the context's
// observation spec and — when the pool has a live reporter and heartbeats
// are on — a per-run progress feed.
func runOne(ctx context.Context, j runJob) (core.Result, error) {
	cfg, specs, err := scenario.Build(j.spec)
	if err != nil {
		return core.Result{}, err
	}
	if j.tweak != nil {
		j.tweak(&cfg)
	}
	applyObservation(ctx, &cfg)
	if p := poolFrom(ctx); p != nil && p.progress != nil && cfg.Heartbeat > 0 {
		cfg.Observers = append(cfg.Observers, &progressObserver{pr: p.progress})
	}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		return core.Result{}, err
	}
	return eng.Run(ctx)
}

// avgSlots collapses runJobs results laid out as consecutive per-seed runs
// — slot 0's seeds, then slot 1's, … — into one Avg per slot.
func avgSlots(results []core.Result, seedsPerSlot int) []Avg {
	avgs := make([]Avg, 0, len(results)/seedsPerSlot)
	for i := 0; i < len(results); i += seedsPerSlot {
		var avg Avg
		for _, res := range results[i : i+seedsPerSlot] {
			avg.accumulate(res)
		}
		avg.finish()
		avgs = append(avgs, avg)
	}
	return avgs
}
