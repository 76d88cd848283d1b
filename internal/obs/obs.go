// Package obs is the engine's unified observation surface: one typed
// Observer API over the report.Event stream plus engine-lifecycle signals
// (run start, periodic heartbeat, run end), and a Registry of named
// monotonic counters and per-tick-phase wall-clock timers that the engine
// feeds and exposes as an immutable Snapshot.
//
// The design mirrors the ONE simulator's pluggable report modules: an
// Observer subscribes to whatever subset of signals it cares about (embed
// Base for no-op defaults, implement KindFilter to restrict event kinds).
// The event writers (TraceWriter, ConnTraceWriter, ContactStats, Buffer)
// render the event stream; the sinks JSONLSink and LogSink render the
// structured Snapshot stream. Attaching no observers costs the engine
// nothing beyond an empty-slice check per emitted event, and golden event
// traces stay byte-identical with or without observers attached.
package obs

import (
	"dtnsim/internal/report"
)

// Meta describes one run at start: the static configuration an observer
// needs to label its output. It is delivered exactly once, before the first
// tick of the first Run/RunFor call.
type Meta struct {
	// Nodes is the network size.
	Nodes int `json:"nodes"`
	// Scheme names the protocol stack ("chitchat" or "incentive").
	Scheme string `json:"scheme"`
	// Seed is the run's root random seed.
	Seed int64 `json:"seed"`
	// StepSeconds is the tick granularity in simulated seconds.
	StepSeconds float64 `json:"step_seconds"`
	// DurationSeconds is the configured simulated span in seconds.
	DurationSeconds float64 `json:"duration_seconds"`
	// Kinetic reports whether kinetic contact detection is active.
	Kinetic bool `json:"kinetic"`
}

// Observer is the unified subscription surface. The engine calls every
// method synchronously from the simulation goroutine, so implementations
// must be cheap; anything slow belongs behind a buffer. Embed Base to
// implement only the signals you care about.
//
// Delivery contract:
//
//   - RunStart fires once, when the engine first starts advancing time.
//   - Event fires for every report.Event the run emits, in emission order,
//     filtered by Kinds when the observer implements KindFilter. For each
//     event, observers run in Config.Observers order.
//   - Heartbeat fires on the configured wall-clock interval
//     (Config.Heartbeat), after the tick that crossed the interval.
//   - RunEnd fires once at the end of Engine.Run, with the final snapshot.
type Observer interface {
	RunStart(Meta)
	Event(report.Event)
	Heartbeat(Snapshot)
	RunEnd(Snapshot)
}

// KindFilter optionally restricts which event kinds an observer receives.
// The engine consults it once, at construction: a nil slice means every
// kind; an empty non-nil slice means no events at all (lifecycle signals
// still fire). Snapshot-only sinks return an empty slice so the per-event
// hot path never touches them.
type KindFilter interface {
	Kinds() []report.Kind
}

// Base is a no-op Observer; embed it to implement only selected signals.
type Base struct{}

// RunStart implements Observer.
func (Base) RunStart(Meta) {}

// Event implements Observer.
func (Base) Event(report.Event) {}

// Heartbeat implements Observer.
func (Base) Heartbeat(Snapshot) {}

// RunEnd implements Observer.
func (Base) RunEnd(Snapshot) {}

var _ Observer = Base{}
