package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the engine's mid-run control surface. The engine itself is
// single-goroutine: every event, tick, and observer callback runs on the
// goroutine driving Run. Control turns that inside out for external
// drivers (the dtnserved control plane, tests): any goroutine may enqueue
// a mutation, and the next tick applies it on the sim goroutine first
// thing — so controls observe a consistent engine and never race the tick
// pipeline.
//
// The drain is deliberately inert when the queue is empty: it emits no
// events, reads no RNG, and mutates nothing, so an idle mailbox leaves
// golden event traces byte-identical.

// controlQueue is the cross-goroutine mailbox. pending mirrors len(fns)
// so the per-tick fast path is one atomic load, not a mutex acquire.
type controlQueue struct {
	mu      sync.Mutex
	fns     []func(now time.Duration)
	pending atomic.Bool
}

// Control enqueues fn to run on the simulation goroutine at the start of
// the next tick, after that step's due workload arrivals. It is safe to
// call from any goroutine at any point in the run; fn itself runs with
// exclusive access to the engine, exactly like an event callback. Controls
// enqueued while the run is past its configured duration are never
// applied.
func (e *Engine) Control(fn func(now time.Duration)) {
	e.controls.mu.Lock()
	e.controls.fns = append(e.controls.fns, fn)
	e.controls.pending.Store(true)
	e.controls.mu.Unlock()
}

// drainControls applies every queued control in enqueue order; the tick
// calls it first thing and charges its time to obs.PhaseEvents. The swap
// under the mutex is brief; the controls themselves run outside it so a
// control may enqueue further controls (they land next step).
func (e *Engine) drainControls(now time.Duration) {
	if !e.controls.pending.Load() {
		return
	}
	e.controls.mu.Lock()
	fns := e.controls.fns
	e.controls.fns = nil
	e.controls.pending.Store(false)
	e.controls.mu.Unlock()
	for _, fn := range fns {
		fn(now)
	}
}

// SetWorkloadMeanInterval retargets the Poisson message-generation rate
// mid-run: every node's pending origination is redrawn from the new mean
// at the start of the next tick. Zero disables generation (pending draws are
// cancelled); re-enabling re-arms every node. The redraw consumes the
// workload RNG, so a retargeted run intentionally diverges from an
// untouched one — this is the dtnserved "dynamic workload" control, not a
// trace-preserving operation.
func (e *Engine) SetWorkloadMeanInterval(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("core: workload mean interval must be non-negative, got %v", d)
	}
	if d > 0 && e.cfg.Workload.Vocab == nil {
		return fmt.Errorf("core: cannot enable workload: engine was built without a vocabulary")
	}
	e.Control(func(time.Duration) {
		e.cfg.Workload.MeanInterval = d
		for _, n := range e.nodes {
			e.scheduleNextMessage(n)
		}
	})
	return nil
}
