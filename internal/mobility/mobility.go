// Package mobility implements node movement models. The paper evaluates
// everything under the Random Waypoint model (Paper I §5); Stationary and
// Waypoint-follower models support the example scenarios and tests.
package mobility

import (
	"fmt"
	"time"

	"dtnsim/internal/sim"
	"dtnsim/internal/world"
)

// Model produces a node's trajectory. Advance moves the model's internal
// state forward by dt and returns the new position; implementations must be
// deterministic given their RNG stream.
type Model interface {
	// Position returns the current position without advancing time.
	Position() world.Point
	// Advance moves the node by dt and returns the new position.
	Advance(dt time.Duration) world.Point
}

// SpeedBounded marks models that can bound their displacement rate: a node
// driven by the model never moves farther than MaxSpeed()·dt metres over any
// Advance(dt). The engine's kinetic contact detection relies on this bound
// to keep a conservative candidate pair list alive across ticks (see
// DESIGN.md "Kinetic contact detection"); one model without the bound in a
// network disables that path wholesale. Stationary models report 0.
//
// Waypoints deliberately does not implement SpeedBounded: it pins positions
// at instants, so a step that crosses a pin teleports the node — the
// effective speed depends on the tick granularity, not the model.
// GroupMember does not either: its convergence step covers a fraction of
// the (unbounded) distance to the leader's side.
type SpeedBounded interface {
	Model
	// MaxSpeed returns an upper bound on the model's speed in m/s,
	// constant for the model's lifetime.
	MaxSpeed() float64
}

// Stationary keeps a node at a fixed point (infrastructure nodes, or the
// pinned devices in the Paper II demo walkthrough).
type Stationary struct {
	At world.Point
}

var _ SpeedBounded = (*Stationary)(nil)

// MaxSpeed implements SpeedBounded: a stationary node never moves.
func (s *Stationary) MaxSpeed() float64 { return 0 }

// Position implements Model.
func (s *Stationary) Position() world.Point { return s.At }

// Advance implements Model.
func (s *Stationary) Advance(time.Duration) world.Point { return s.At }

// RandomWaypointConfig parameterises the Random Waypoint model.
type RandomWaypointConfig struct {
	Bounds world.Rect
	// MinSpeed and MaxSpeed bound the uniform speed draw, in m/s. The
	// default pedestrian profile (0.5–1.5 m/s) matches the ONE simulator's
	// standard settings for human-carried devices.
	MinSpeed, MaxSpeed float64
	// MinPause and MaxPause bound the pause at each waypoint.
	MinPause, MaxPause time.Duration
}

// Validate checks the configuration for internal consistency.
func (c RandomWaypointConfig) Validate() error {
	switch {
	case c.Bounds.Width <= 0 || c.Bounds.Height <= 0:
		return fmt.Errorf("mobility: bounds must have positive area")
	case c.MinSpeed <= 0:
		return fmt.Errorf("mobility: min speed must be positive, got %v", c.MinSpeed)
	case c.MaxSpeed < c.MinSpeed:
		return fmt.Errorf("mobility: max speed %v below min speed %v", c.MaxSpeed, c.MinSpeed)
	case c.MinPause < 0:
		return fmt.Errorf("mobility: min pause must be non-negative, got %v", c.MinPause)
	case c.MaxPause < c.MinPause:
		return fmt.Errorf("mobility: max pause %v below min pause %v", c.MaxPause, c.MinPause)
	}
	return nil
}

// DefaultPedestrian returns the walking-speed profile used by the paper-scale
// scenarios within the given bounds.
func DefaultPedestrian(bounds world.Rect) RandomWaypointConfig {
	return RandomWaypointConfig{
		Bounds:   bounds,
		MinSpeed: 0.5,
		MaxSpeed: 1.5,
		MinPause: 0,
		MaxPause: 2 * time.Minute,
	}
}

// RandomWaypoint implements the classic model: pick a uniform destination in
// the area, walk to it in a straight line at a uniformly drawn speed, pause,
// repeat.
type RandomWaypoint struct {
	cfg   RandomWaypointConfig
	rng   *sim.RNG
	pos   world.Point
	dest  world.Point
	speed float64       // m/s toward dest
	pause time.Duration // remaining pause before picking the next leg
}

var _ SpeedBounded = (*RandomWaypoint)(nil)

// MaxSpeed implements SpeedBounded: legs walk at a speed drawn from
// [MinSpeed, MaxSpeed] and pauses don't move, so the configured ceiling
// bounds every step.
func (w *RandomWaypoint) MaxSpeed() float64 { return w.cfg.MaxSpeed }

// NewRandomWaypoint creates a walker starting at a uniform random position.
func NewRandomWaypoint(cfg RandomWaypointConfig, rng *sim.RNG) (*RandomWaypoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &RandomWaypoint{cfg: cfg, rng: rng}
	w.pos = w.randomPoint()
	w.pickLeg()
	return w, nil
}

func (w *RandomWaypoint) randomPoint() world.Point {
	return world.Point{
		X: w.rng.Range(0, w.cfg.Bounds.Width),
		Y: w.rng.Range(0, w.cfg.Bounds.Height),
	}
}

func (w *RandomWaypoint) pickLeg() {
	w.dest = w.randomPoint()
	w.speed = w.rng.Range(w.cfg.MinSpeed, w.cfg.MaxSpeed)
	span := w.cfg.MaxPause - w.cfg.MinPause
	w.pause = w.cfg.MinPause
	if span > 0 {
		w.pause += time.Duration(w.rng.Int63() % int64(span))
	}
}

// Position implements Model.
func (w *RandomWaypoint) Position() world.Point { return w.pos }

// Advance implements Model. Movement within a step is linear; a step that
// overshoots the waypoint consumes the pause and starts the next leg, so
// long steps still produce a continuous trajectory.
func (w *RandomWaypoint) Advance(dt time.Duration) world.Point {
	remaining := dt
	for remaining > 0 {
		if w.pos == w.dest {
			if w.pause >= remaining {
				w.pause -= remaining
				return w.pos
			}
			remaining -= w.pause
			w.pause = 0
			w.pickLeg()
			continue
		}
		to := w.dest.Sub(w.pos)
		distLeft := to.Len()
		maxTravel := w.speed * remaining.Seconds()
		if maxTravel >= distLeft {
			// Arrive this step; spend the leftover time pausing.
			travelTime := time.Duration(distLeft / w.speed * float64(time.Second))
			w.pos = w.dest
			remaining -= travelTime
			continue
		}
		w.pos = w.pos.Add(to.Unit().Scale(maxTravel))
		remaining = 0
	}
	return w.pos
}

// Waypoints replays a fixed list of timed positions; used by tests and the
// deterministic demo scenario to choreograph exact contact sequences. It is
// intentionally not SpeedBounded — crossing a pin jumps the position within
// one step, so no per-second bound exists (see SpeedBounded).
type Waypoints struct {
	steps []TimedPoint
	at    time.Duration
}

// TimedPoint pins a position from time T onward (until the next entry).
type TimedPoint struct {
	T time.Duration
	P world.Point
}

// NewWaypoints builds a follower; steps must be in increasing time order and
// non-empty.
func NewWaypoints(steps []TimedPoint) (*Waypoints, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("mobility: waypoint list must be non-empty")
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].T <= steps[i-1].T {
			return nil, fmt.Errorf("mobility: waypoint times must strictly increase (index %d)", i)
		}
	}
	cp := make([]TimedPoint, len(steps))
	copy(cp, steps)
	return &Waypoints{steps: cp}, nil
}

// Position implements Model.
func (f *Waypoints) Position() world.Point { return f.current() }

// Advance implements Model.
func (f *Waypoints) Advance(dt time.Duration) world.Point {
	f.at += dt
	return f.current()
}

func (f *Waypoints) current() world.Point {
	cur := f.steps[0].P
	for _, s := range f.steps {
		if s.T > f.at {
			break
		}
		cur = s.P
	}
	return cur
}
