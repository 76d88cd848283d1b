package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
	"dtnsim/internal/routing"
)

// probes are the layer timers and counters a traced engine run carries.
type probes struct {
	router   *timedRouter
	payments *paymentCounter
}

// phaseLayers reports the engine's phase timers as ms per simulated second,
// plus the contact-round time outside routing: the contacts and exchange
// phases, which both run routing rounds, minus the time the router took.
func phaseLayers(m metrics, s obs.Snapshot, routeSeconds float64) {
	perSimS := func(sec float64) float64 { return msPerSimS(sec, s.SimSeconds) }
	m.set("events_ms_per_sim_s", "ms/sim-s", perSimS(s.Phase("events")))
	m.set("move_ms_per_sim_s", "ms/sim-s", perSimS(s.Phase("move")))
	m.set("detect_ms_per_sim_s", "ms/sim-s", perSimS(s.Phase("detect")))
	m.set("contacts_ms_per_sim_s", "ms/sim-s", perSimS(s.Phase("contacts")))
	m.set("exchange_ms_per_sim_s", "ms/sim-s", perSimS(s.Phase("exchange")))
	m.set("rounds_self_ms_per_sim_s", "ms/sim-s", perSimS(s.Phase("contacts")+s.Phase("exchange")-routeSeconds))
	m.set("route_ms_per_sim_s", "ms/sim-s", perSimS(routeSeconds))
	for _, name := range []string{"candidate_rebuilds", "contacts_up", "contacts_live", "interest_sweeps", "table_rows_live"} {
		m.set(name, "count", float64(s.Counter(name)))
	}
}

// engineLayers is the per-layer view of one traced engine run.
func engineLayers(s obs.Snapshot, res core.Result, nodes []*core.Node, p *probes, wall time.Duration) metrics {
	m := metrics{}
	phaseLayers(m, s, p.router.busy.Seconds())
	outcomeLayers(m, p.router, p.payments.n.Load(), res, nodes)
	// A single engine is a one-slot, one-run pool.
	m.set("pool_runs", "count", 1)
	m.set("pool_busy_ratio", "ratio", s.WallSeconds/wall.Seconds())
	m.set("run_wall_max_s", "s", s.WallSeconds)
	return m
}

// suiteLayers is the per-layer view of one traced figure suite, summed
// over the run-end snapshots of its engines. The figure API builds its own
// routers and returns only seed-averaged results, so the router, buffer,
// transfer and refusal metrics read zero here.
func suiteLayers(snaps []obs.Snapshot, payments int64, slots int, wall time.Duration) metrics {
	var sum obs.Snapshot
	var maxWall float64
	for _, s := range snaps {
		sum = addSnapshots(sum, s)
		maxWall = math.Max(maxWall, s.WallSeconds)
	}
	m := metrics{}
	phaseLayers(m, sum, 0)
	outcomeLayers(m, &timedRouter{}, payments, core.Result{}, nil)
	m.set("pool_runs", "count", float64(len(snaps)))
	m.set("pool_busy_ratio", "ratio", sum.WallSeconds/(float64(slots)*wall.Seconds()))
	m.set("run_wall_max_s", "s", maxWall)
	return m
}

// outcomeLayers reports the routing probe and the run's incentive, buffer
// and transfer counts.
func outcomeLayers(m metrics, r *timedRouter, payments int64, res core.Result, nodes []*core.Node) {
	m.set("route_calls", "count", float64(r.calls))
	m.set("route_scanned_per_call", "msg/call", ratio(float64(r.scanned), float64(r.calls)))
	m.set("offers_per_call", "offer/call", ratio(float64(r.offers), float64(r.calls)))
	m.set("offer_yield", "ratio", ratio(float64(res.Transfers), float64(r.offers)))
	m.set("refused_no_tokens", "count", float64(res.RefusedNoTokens))
	m.set("payments", "count", float64(payments))
	m.set("refused_reputation", "count", float64(res.RefusedReputation))
	dropped := 0
	for _, n := range nodes {
		dropped += n.Buffer().Dropped()
	}
	m.set("buffered_msgs", "count", float64(bufferedMsgs(nodes)))
	m.set("buffer_dropped", "count", float64(dropped))
	m.set("transfers", "count", float64(res.Transfers))
	m.set("aborted_transfers", "count", float64(res.AbortedTransfers))
}

// addSnapshots sums two snapshots field by field, gauges included, matching
// counters and phases by name.
func addSnapshots(a, b obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{
		SimSeconds:  a.SimSeconds + b.SimSeconds,
		WallSeconds: a.WallSeconds + b.WallSeconds,
	}
	for _, c := range b.Counters {
		out.Counters = append(out.Counters, obs.CounterValue{Name: c.Name, Value: a.Counter(c.Name) + c.Value})
	}
	for _, p := range b.Phases {
		out.Phases = append(out.Phases, obs.PhaseValue{Name: p.Name, Seconds: a.Phase(p.Name) + p.Seconds})
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// timedRouter times the routing layer from outside: it wraps the engine's
// router, forwards every call unchanged, and counts the work each
// SelectOffers call was handed and produced. The engine drives its router
// from the simulation goroutine only, so the counters need no locking.
type timedRouter struct {
	inner   routing.Router
	calls   int64
	scanned int64 // sender buffer length summed over calls
	offers  int64
	busy    time.Duration
}

// Name implements routing.Router.
func (r *timedRouter) Name() string { return r.inner.Name() }

// SelectOffers implements routing.Router.
func (r *timedRouter) SelectOffers(u, v routing.NodeView) []routing.Offer {
	r.calls++
	r.scanned += int64(u.Buffer().Len())
	t := time.Now()
	offers := r.inner.SelectOffers(u, v)
	r.busy += time.Since(t)
	r.offers += int64(len(offers))
	return offers
}

// contactAwareRouter is a timedRouter whose inner router also keeps
// per-encounter state; the engine finds ContactAware by type assertion, so
// the wrapper must keep advertising it.
type contactAwareRouter struct {
	*timedRouter
	aware routing.ContactAware
}

// OnContact implements routing.ContactAware.
func (r contactAwareRouter) OnContact(a, b routing.NodeView, now time.Duration) {
	r.aware.OnContact(a, b, now)
}

// wrapRouter returns inner behind a timedRouter, keeping ContactAware when
// inner implements it, plus the timer to read the counts from.
func wrapRouter(inner routing.Router) (routing.Router, *timedRouter) {
	t := &timedRouter{inner: inner}
	if aware, ok := inner.(routing.ContactAware); ok {
		return contactAwareRouter{timedRouter: t, aware: aware}, t
	}
	return t, t
}

// paymentCounter counts token payments from the event stream. It is shared
// by every engine of a figure suite, which run concurrently on the pool.
type paymentCounter struct {
	obs.Base
	n atomic.Int64
}

// Kinds subscribes to payments only, so other events keep the engine's
// nil fast path.
func (*paymentCounter) Kinds() []report.Kind { return []report.Kind{report.Payment} }

// Event implements obs.Observer.
func (p *paymentCounter) Event(report.Event) { p.n.Add(1) }

// runEnds keeps the final snapshot of every engine run it observes.
type runEnds struct {
	obs.Base
	mu    sync.Mutex
	snaps []obs.Snapshot
}

// Kinds subscribes to no events: only the run-end snapshot is wanted.
func (*runEnds) Kinds() []report.Kind { return []report.Kind{} }

// RunEnd implements obs.Observer.
func (r *runEnds) RunEnd(s obs.Snapshot) {
	r.mu.Lock()
	r.snaps = append(r.snaps, s)
	r.mu.Unlock()
}

// all returns the snapshots collected so far.
func (r *runEnds) all() []obs.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]obs.Snapshot(nil), r.snaps...)
}
