package experiment

import (
	"context"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
)

// Observation configures run observability for every engine the experiment
// harness builds — pool jobs and the bench runners alike. It rides the
// context (WithObservation), the same way the suite-wide Pool does, so one
// spec set up in cmd/dtnexp reaches every (sweep point × scheme × seed) job
// without threading a parameter through every figure function.
type Observation struct {
	// Heartbeat is the per-engine wall-clock snapshot interval; zero
	// disables heartbeats (run_start/run_end still fire).
	Heartbeat time.Duration
	// Observers are attached to every engine built under this context.
	// With sweeps running concurrently the same observer instance sees
	// several runs interleaved, so it must serialise internally —
	// obs.JSONLSink and obs.LogSink both do.
	Observers []obs.Observer
}

// observationKey carries an Observation through a context.
type observationKey struct{}

// WithObservation returns a context whose experiment runs attach the spec's
// observers and heartbeat to every engine they build.
func WithObservation(ctx context.Context, spec Observation) context.Context {
	return context.WithValue(ctx, observationKey{}, spec)
}

// applyObservation merges the context's observation spec (if any) into cfg.
// Config-level settings win: an explicit per-run heartbeat keeps its value,
// and context observers append after any the config already carries.
func applyObservation(ctx context.Context, cfg *core.Config) {
	spec, ok := ctx.Value(observationKey{}).(Observation)
	if !ok {
		return
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = spec.Heartbeat
	}
	cfg.Observers = append(cfg.Observers, spec.Observers...)
}

// progressObserver feeds a run's heartbeats into the sweep Progress so the
// live sim-s/wall-s rate and ETA move *during* long runs, not only when a
// job retires. Each run gets its own instance: on every heartbeat it credits
// the simulated time advanced since the last one, and at run end it takes
// the partial credit back — the pool then credits the job's full span, so
// a finished job counts its span exactly once. A cancelled run never
// reaches RunEnd: its heartbeat credit stays, because that time was
// simulated, and the pool credits it nothing more.
type progressObserver struct {
	obs.Base
	pr       *Progress
	credited float64
}

// Kinds subscribes to no events: progress is fed from snapshots only.
func (o *progressObserver) Kinds() []report.Kind { return []report.Kind{} }

// Heartbeat implements obs.Observer.
func (o *progressObserver) Heartbeat(s obs.Snapshot) {
	o.pr.advance(s.SimSeconds - o.credited)
	o.credited = s.SimSeconds
}

// RunEnd implements obs.Observer.
func (o *progressObserver) RunEnd(obs.Snapshot) {
	o.pr.advance(-o.credited)
	o.credited = 0
}
