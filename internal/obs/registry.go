package obs

import (
	"fmt"
	"time"
)

// Phase identifies one region of the engine's per-tick pipeline. The five
// phases partition a tick's engine work; see DESIGN.md "Observability" for
// the exact attribution of each engine subsystem to a phase.
type Phase int

// The per-tick phases, in pipeline order.
const (
	// PhaseMove is the mobility advance and grid fold-in.
	PhaseMove Phase = iota
	// PhaseDetect is contact-pair detection: the kinetic candidate filter
	// or the full grid scan (or the trace-cursor advance in replay mode).
	PhaseDetect
	// PhaseContacts is contact-set maintenance: diffing the pair set
	// against live contacts, raising and tearing down contacts.
	PhaseContacts
	// PhaseExchange is the contact pass: the walk over live contacts —
	// the deadline checks, the exchange, gossip and routing rounds that
	// come due, and transfer progression.
	PhaseExchange
	// PhaseEvents is the work around the pass: the runner's workload
	// arrivals, the control drain, rating sampling and heartbeats.
	PhaseEvents
	// NumPhases is the phase count; valid phases are [0, NumPhases).
	NumPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseMove:
		return "move"
	case PhaseDetect:
		return "detect"
	case PhaseContacts:
		return "contacts"
	case PhaseExchange:
		return "exchange"
	case PhaseEvents:
		return "events"
	default:
		return fmt.Sprintf("phase-%d", int(p))
	}
}

// Counter is one named monotonic counter. The owner increments it from the
// simulation goroutine; it is not safe for concurrent use (snapshots are
// taken from the same goroutine). A counter registered through Gauge holds
// a sampler instead of a stored count.
type Counter struct {
	name  string
	v     uint64
	fn    func() uint64
	gauge bool
}

// Value returns the current count — the sampler's result for gauges.
func (c *Counter) Value() uint64 {
	if c.fn != nil {
		return c.fn()
	}
	return c.v
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Registry holds one run's named monotonic counters and per-tick-phase
// wall-clock timers. The engine owns exactly one; hot paths hold *Counter
// handles obtained once at construction so increments never touch the name
// map. Not safe for concurrent use — everything runs on the simulation
// goroutine.
type Registry struct {
	order  []*Counter
	byName map[string]*Counter
	phases [NumPhases]time.Duration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Counter)}
}

// Counter returns the named counter, registering it at zero on first use.
// Registration order is preserved in snapshots, so a fixed registration
// sequence yields a stable export layout.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.byName[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.byName[name] = c
	r.order = append(r.order, c)
	return c
}

// Gauge registers a sampled gauge under name: snapshots call fn at
// snapshot time and export the sampled value instead of a stored count.
// Gauges report levels, not rates — Snapshot.Sub carries the later
// snapshot's value through instead of differencing. Registering an
// existing name converts it and replaces its sampler; the registration
// slot (and so the export position) is kept.
func (r *Registry) Gauge(name string, fn func() uint64) {
	c := r.Counter(name)
	c.fn = fn
	c.gauge = true
}

// AddPhase accrues wall-clock time to a phase's running total.
func (r *Registry) AddPhase(p Phase, d time.Duration) {
	if p >= 0 && p < NumPhases {
		r.phases[p] += d
	}
}

// Snapshot renders the registry's current state plus the caller-tracked
// run coordinates (sim time, wall time, step and event counts) as an
// immutable Snapshot with throughput rates derived.
func (r *Registry) Snapshot(sim, wall time.Duration, steps, events uint64) Snapshot {
	s := Snapshot{
		SimSeconds:  sim.Seconds(),
		WallSeconds: wall.Seconds(),
		Steps:       steps,
		Events:      events,
		Counters:    make([]CounterValue, len(r.order)),
		Phases:      make([]PhaseValue, NumPhases),
	}
	if s.WallSeconds > 0 {
		s.EventsPerWallSec = float64(events) / s.WallSeconds
		s.SimPerWallSec = s.SimSeconds / s.WallSeconds
	}
	for i, c := range r.order {
		s.Counters[i] = CounterValue{Name: c.name, Value: c.Value(), Gauge: c.gauge}
	}
	for p := Phase(0); p < NumPhases; p++ {
		s.Phases[p] = PhaseValue{Name: p.String(), Seconds: r.phases[p].Seconds()}
	}
	return s
}

// CounterValue is one counter's value at snapshot time.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
	// Gauge marks a sampled instantaneous level rather than a monotonic
	// total; Sub carries the later value through instead of differencing.
	Gauge bool `json:"gauge,omitempty"`
}

// PhaseValue is one phase timer's accrued total at snapshot time.
type PhaseValue struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Snapshot is one instant of a run's observability state: where simulated
// and wall time stand, throughput rates, every registered counter, and the
// per-phase wall-clock totals. All totals are cumulative since run start;
// use Sub to measure a window between two snapshots.
type Snapshot struct {
	// SimSeconds is the virtual clock position in simulated seconds.
	SimSeconds float64 `json:"sim_seconds"`
	// WallSeconds is wall-clock time since the run first started advancing.
	WallSeconds float64 `json:"wall_seconds"`
	// Steps counts executed ticks.
	Steps uint64 `json:"steps"`
	// Events counts report.Events emitted (recorded or not).
	Events uint64 `json:"events"`
	// EventsPerWallSec is Events / WallSeconds.
	EventsPerWallSec float64 `json:"events_per_wall_second"`
	// SimPerWallSec is SimSeconds / WallSeconds — how much faster than
	// real time the run advances.
	SimPerWallSec float64 `json:"sim_seconds_per_wall_second"`
	// Counters lists every registered counter in registration order.
	Counters []CounterValue `json:"counters"`
	// Phases lists the per-tick-phase wall-clock totals in pipeline order.
	Phases []PhaseValue `json:"phases"`
}

// Counter returns the named counter's value, or 0 if absent.
func (s Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Phase returns the named phase's accrued seconds, or 0 if absent.
func (s Snapshot) Phase(name string) float64 {
	for _, p := range s.Phases {
		if p.Name == name {
			return p.Seconds
		}
	}
	return 0
}

// PhaseSum returns the sum of all phase totals in seconds — the portion of
// WallSeconds the engine spent inside its instrumented tick pipeline.
func (s Snapshot) PhaseSum() float64 {
	var sum float64
	for _, p := range s.Phases {
		sum += p.Seconds
	}
	return sum
}

// Sub returns the window between an earlier snapshot and this one: every
// cumulative field is differenced and the rates recomputed over the window.
// Counters or phases absent from prev difference against zero.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	w := Snapshot{
		SimSeconds:  s.SimSeconds - prev.SimSeconds,
		WallSeconds: s.WallSeconds - prev.WallSeconds,
		Steps:       s.Steps - prev.Steps,
		Events:      s.Events - prev.Events,
		Counters:    make([]CounterValue, len(s.Counters)),
		Phases:      make([]PhaseValue, len(s.Phases)),
	}
	if w.WallSeconds > 0 {
		w.EventsPerWallSec = float64(w.Events) / w.WallSeconds
		w.SimPerWallSec = w.SimSeconds / w.WallSeconds
	}
	for i, c := range s.Counters {
		if c.Gauge {
			// A level, not a total: the window's value is where the gauge
			// stood at its end.
			w.Counters[i] = c
			continue
		}
		w.Counters[i] = CounterValue{Name: c.Name, Value: c.Value - prev.Counter(c.Name)}
	}
	for i, p := range s.Phases {
		w.Phases[i] = PhaseValue{Name: p.Name, Seconds: p.Seconds - prev.Phase(p.Name)}
	}
	return w
}
