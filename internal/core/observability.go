package core

import (
	"time"

	"dtnsim/internal/obs"
	"dtnsim/internal/report"
)

// This file is the engine's side of the unified observer API (see
// internal/obs): observer wiring and per-kind event dispatch, the
// run-start / heartbeat / run-end lifecycle, and Engine.Snapshot() — the
// uniform view over the registry's counters and per-tick-phase timers that
// replaced the one-off accessor grab-bag.
//
// Counter names exported through Snapshot:
//
//	contacts_up         contacts raised (open or refused)
//	contacts_up_open    the subset of raises where both radios opened
//	contacts_down       contacts torn down (open or refused — symmetric
//	                    with contacts_up, so up − down = contacts_live)
//	candidate_rebuilds  kinetic candidate-list rebuilds
//	rating_samples      Figure 5.4 rating samples taken
//	interest_sweeps     eviction sweeps run by the RTSR refresh: one per
//	                    refreshed table whose deadline, the earliest death
//	                    bound of its unheld transient rows, has passed
//	interest_evictions  interest rows evicted by those sweeps
//	route_walks         routing walks over a contact direction's memo
//	                    (routing.Memo): one per routing call over an open
//	                    contact whose router walks the sender's buffer
//	route_rebuilds      the subset of those walks that rebuilt the memo
//	                    from the buffer's first slot: its first walk, or a
//	                    removal or retag in either buffer or a subscription
//	                    at the receiver since its last walk. 1 − rebuilds/
//	                    walks is the memo's reuse rate
//
// Sampled gauges (levels read at snapshot time, not monotonic totals —
// Snapshot.Sub carries the later value through instead of differencing):
//
//	table_rows_live      live interest rows summed over every node's table
//	table_rows_saturated transient interest rows stored at MaxWeight, summed
//	                     over every node's table
//	contacts_live        contacts currently up (open and refused records)
//	contact_pool_free    contacts parked in the lifecycle arena free list
//	route_memo_pool_free routing memos parked in their free list
//	transfer_pool_free   transfers parked in the arena free list
//
// Phase names and their attribution are documented on obs.Phase and in
// DESIGN.md "Observability".

// initObservability builds the registry, the hot-path counter handles, and
// the per-kind observer dispatch table. Config.Observers is the only
// subscription surface, event writers included.
func (e *Engine) initObservability(cfg Config) {
	e.reg = obs.NewRegistry()
	e.ctrUps = e.reg.Counter("contacts_up")
	e.ctrUpsOpen = e.reg.Counter("contacts_up_open")
	e.ctrDowns = e.reg.Counter("contacts_down")
	e.ctrRebuild = e.reg.Counter("candidate_rebuilds")
	e.ctrSamples = e.reg.Counter("rating_samples")
	e.ctrSweep = e.reg.Counter("interest_sweeps")
	e.ctrEvict = e.reg.Counter("interest_evictions")
	e.ctrWalks = e.reg.Counter("route_walks")
	e.ctrWalkRebuilds = e.reg.Counter("route_rebuilds")
	// The interest tables own the occupancy count; the gauge samples it
	// at snapshot time. The closures read e.nodes
	// live, so registering before the node loop is fine.
	e.reg.Gauge("table_rows_live", func() uint64 {
		var sum uint64
		for _, n := range e.nodes {
			sum += uint64(n.table.Len())
		}
		return sum
	})
	e.reg.Gauge("table_rows_saturated", func() uint64 {
		var sum uint64
		for _, n := range e.nodes {
			sum += uint64(n.table.SaturatedTransients())
		}
		return sum
	})
	// Contact-lifecycle arena levels (DESIGN.md "Contact lifecycle arena &
	// merge-diff"): live contacts plus the free-list depths of contacts,
	// routing memos and transfers, so a churny run can confirm the arena
	// reaches steady state instead of growing.
	e.reg.Gauge("contacts_live", func() uint64 { return uint64(len(e.contactList)) })
	e.reg.Gauge("contact_pool_free", func() uint64 { return uint64(len(e.contactPool)) })
	e.reg.Gauge("route_memo_pool_free", func() uint64 { return uint64(len(e.memoPool)) })
	e.reg.Gauge("transfer_pool_free", func() uint64 { return uint64(len(e.transferPool)) })

	e.observers = append([]obs.Observer(nil), cfg.Observers...)
	e.obsByKind = make([][]obs.Observer, int(report.TagAdded)+1)
	for _, o := range e.observers {
		kinds := report.AllKinds()
		if f, ok := o.(obs.KindFilter); ok {
			if ks := f.Kinds(); ks != nil {
				kinds = ks
			}
		}
		for _, k := range kinds {
			if i := int(k); i > 0 && i < len(e.obsByKind) {
				e.obsByKind[i] = append(e.obsByKind[i], o)
			}
		}
	}
}

// record forwards an event to the observers subscribed to its kind. With
// nothing attached this is the historical nil fast path: one counter
// increment and one empty-slice length check.
func (e *Engine) record(ev report.Event) {
	e.nEvents++
	if subs := e.obsByKind[ev.Kind]; len(subs) != 0 {
		for _, o := range subs {
			o.Event(ev)
		}
	}
}

// startRun opens a run segment (Run or one RunFor call). It restarts the
// phase clock, so time spent outside the engine between segments is
// charged to no phase, and on the first segment marks the wall-clock
// origin and fires RunStart — emission the first tick charges to
// PhaseEvents, like a heartbeat's.
func (e *Engine) startRun() {
	e.phaseMark = time.Now()
	if e.started {
		return
	}
	e.started = true
	e.wallStart = e.phaseMark
	e.hbLast = e.wallStart
	if len(e.observers) == 0 {
		return
	}
	m := obs.Meta{
		Nodes:           len(e.nodes),
		Scheme:          e.cfg.Scheme.String(),
		Seed:            e.cfg.Seed,
		StepSeconds:     e.cfg.Step.Seconds(),
		DurationSeconds: e.cfg.Duration.Seconds(),
		Kinetic:         e.kinSkin > 0,
	}
	for _, o := range e.observers {
		o.RunStart(m)
	}
}

// maybeHeartbeat emits a snapshot to every observer when the configured
// wall-clock interval has elapsed. It runs at the tail of every tick, so a
// heartbeat observes a completed step; with heartbeats disabled (or no
// observers) the cost is a single comparison. Emission time (snapshot
// build plus observer callbacks) is charged to PhaseEvents so the phase
// totals keep accounting for the run's wall clock even under aggressive
// heartbeat intervals.
func (e *Engine) maybeHeartbeat() {
	if e.cfg.Heartbeat <= 0 || len(e.observers) == 0 {
		return
	}
	if time.Since(e.hbLast) < e.cfg.Heartbeat {
		return
	}
	e.hbLast = time.Now()
	snap := e.Snapshot()
	for _, o := range e.observers {
		o.Heartbeat(snap)
	}
	e.chargePhase(obs.PhaseEvents)
}

// chargePhase closes the phase p at the current instant: the wall time
// since the previous phase boundary accrues to p, and now becomes the next
// boundary. Boundaries are contiguous within a run segment, so the phase
// totals cover every instant of it — runner bookkeeping between stages and
// any time the process spends descheduled included — and the phase sum
// tracks the wall clock however loaded the host is.
func (e *Engine) chargePhase(p obs.Phase) {
	now := time.Now()
	e.reg.AddPhase(p, now.Sub(e.phaseMark))
	e.phaseMark = now
}

// endRun fires RunEnd with the final snapshot; Engine.Run calls it once
// after the configured duration completes.
func (e *Engine) endRun() {
	if len(e.observers) == 0 {
		return
	}
	snap := e.Snapshot()
	for _, o := range e.observers {
		o.RunEnd(snap)
	}
}

// Snapshot returns the uniform observability view of the run so far:
// sim-time and wall-time positions, throughput rates, every named counter,
// and the per-tick-phase wall-clock totals. It is cheap enough for
// periodic probing (a few small allocations) and is the single surface
// behind the heartbeat, the CLIs' structured export, and the bench
// runners' phase columns.
func (e *Engine) Snapshot() obs.Snapshot {
	var wall time.Duration
	if e.started {
		wall = time.Since(e.wallStart)
	}
	return e.reg.Snapshot(e.runner.Clock().Now(), wall, e.tickNo, e.nEvents)
}
