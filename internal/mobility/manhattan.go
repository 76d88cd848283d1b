package mobility

import (
	"fmt"
	"math"
	"time"

	"dtnsim/internal/sim"
	"dtnsim/internal/world"
)

// ManhattanGridConfig parameterises movement constrained to a street grid —
// the urban counterpart to Random Waypoint (the ONE simulator's map-based
// movement, simplified to a regular grid). Nodes walk along horizontal and
// vertical streets, turning at intersections with the configured
// probability.
type ManhattanGridConfig struct {
	Bounds world.Rect
	// BlockSize is the street spacing in metres.
	BlockSize float64
	// MinSpeed and MaxSpeed bound the uniform speed draw, in m/s.
	MinSpeed, MaxSpeed float64
	// TurnProb is the chance of turning (left or right, evenly) at each
	// intersection; otherwise the walker continues straight when it can.
	TurnProb float64
}

// DefaultManhattan returns a pedestrian street profile with 100 m blocks.
func DefaultManhattan(bounds world.Rect) ManhattanGridConfig {
	return ManhattanGridConfig{
		Bounds:    bounds,
		BlockSize: 100,
		MinSpeed:  0.5,
		MaxSpeed:  1.5,
		TurnProb:  0.5,
	}
}

// Validate checks the configuration.
func (c ManhattanGridConfig) Validate() error {
	switch {
	case c.Bounds.Width <= 0 || c.Bounds.Height <= 0:
		return fmt.Errorf("mobility: manhattan bounds must have positive area")
	case c.BlockSize <= 0 || c.BlockSize > c.Bounds.Width || c.BlockSize > c.Bounds.Height:
		return fmt.Errorf("mobility: block size %v does not fit bounds", c.BlockSize)
	case c.MinSpeed <= 0 || c.MaxSpeed < c.MinSpeed:
		return fmt.Errorf("mobility: manhattan speed range [%v, %v] invalid", c.MinSpeed, c.MaxSpeed)
	case c.TurnProb < 0 || c.TurnProb > 1:
		return fmt.Errorf("mobility: turn probability %v outside [0, 1]", c.TurnProb)
	}
	return nil
}

// ManhattanGrid walks the street grid.
type ManhattanGrid struct {
	cfg   ManhattanGridConfig
	rng   *sim.RNG
	pos   world.Point
	dir   world.Vector // unit vector along a street axis
	speed float64
}

var _ SpeedBounded = (*ManhattanGrid)(nil)

// MaxSpeed implements SpeedBounded: street legs walk at a speed drawn from
// [MinSpeed, MaxSpeed]; turns redraw within the same range.
func (w *ManhattanGrid) MaxSpeed() float64 { return w.cfg.MaxSpeed }

// NewManhattanGrid starts a walker at a random intersection heading in a
// random street direction.
func NewManhattanGrid(cfg ManhattanGridConfig, rng *sim.RNG) (*ManhattanGrid, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &ManhattanGrid{cfg: cfg, rng: rng}
	cols := int(cfg.Bounds.Width / cfg.BlockSize)
	rows := int(cfg.Bounds.Height / cfg.BlockSize)
	w.pos = world.Point{
		X: float64(rng.Intn(cols+1)) * cfg.BlockSize,
		Y: float64(rng.Intn(rows+1)) * cfg.BlockSize,
	}
	w.pos = cfg.Bounds.Clamp(w.pos)
	w.dir = w.randomDirection()
	w.speed = rng.Range(cfg.MinSpeed, cfg.MaxSpeed)
	return w, nil
}

func (w *ManhattanGrid) randomDirection() world.Vector {
	dirs := [4]world.Vector{{DX: 1}, {DX: -1}, {DY: 1}, {DY: -1}}
	return dirs[w.rng.Intn(4)]
}

// Position implements Model.
func (w *ManhattanGrid) Position() world.Point { return w.pos }

// Advance implements Model: walk along the current street, handling each
// intersection (and the area boundary) as it is reached within the step.
func (w *ManhattanGrid) Advance(dt time.Duration) world.Point {
	remaining := w.speed * dt.Seconds()
	for remaining > 1e-9 {
		next := w.nextIntersection()
		dist := w.pos.Dist(next)
		if dist > remaining {
			w.pos = w.pos.Add(w.dir.Scale(remaining))
			break
		}
		w.pos = next
		remaining -= dist
		w.chooseDirection()
	}
	return w.pos
}

// nextIntersection returns the next grid crossing in the walking direction,
// clamped to the bounds.
func (w *ManhattanGrid) nextIntersection() world.Point {
	b := w.cfg.BlockSize
	next := w.pos
	switch {
	case w.dir.DX > 0:
		next.X = math.Min(w.cfg.Bounds.Width, math.Floor(w.pos.X/b+1)*b)
	case w.dir.DX < 0:
		next.X = math.Max(0, math.Ceil(w.pos.X/b-1)*b)
	case w.dir.DY > 0:
		next.Y = math.Min(w.cfg.Bounds.Height, math.Floor(w.pos.Y/b+1)*b)
	default:
		next.Y = math.Max(0, math.Ceil(w.pos.Y/b-1)*b)
	}
	return next
}

// chooseDirection turns or continues at an intersection, never walking out
// of bounds and re-drawing the speed on turns.
func (w *ManhattanGrid) chooseDirection() {
	turn := w.rng.Coin(w.cfg.TurnProb)
	if turn {
		// Perpendicular axis, either way.
		if w.dir.DX != 0 {
			w.dir = world.Vector{DY: 1}
		} else {
			w.dir = world.Vector{DX: 1}
		}
		if w.rng.Coin(0.5) {
			w.dir = w.dir.Scale(-1)
		}
		w.speed = w.rng.Range(w.cfg.MinSpeed, w.cfg.MaxSpeed)
	}
	// Bounce off the boundary.
	ahead := w.pos.Add(w.dir.Scale(1))
	if !w.cfg.Bounds.Contains(ahead) {
		w.dir = w.dir.Scale(-1)
		// A corner can require the other axis entirely.
		ahead = w.pos.Add(w.dir.Scale(1))
		if !w.cfg.Bounds.Contains(ahead) {
			if w.dir.DX != 0 {
				w.dir = world.Vector{DY: 1}
			} else {
				w.dir = world.Vector{DX: 1}
			}
			if !w.cfg.Bounds.Contains(w.pos.Add(w.dir.Scale(1))) {
				w.dir = w.dir.Scale(-1)
			}
		}
	}
}

// GroupConfig parameterises leader–follower squad mobility: a leader walks
// Random Waypoint and each member holds a position within Radius of the
// leader (the battlefield deployment's fire teams, or a disaster-response
// crew moving together).
type GroupConfig struct {
	// Radius is the maximum member offset from the leader in metres.
	Radius float64
	// Snap is how strongly members track the leader per second, in (0, 1].
	Snap float64
}

// DefaultGroup returns a squad profile: members within 30 m, converging on
// the leader within a few seconds.
func DefaultGroup() GroupConfig { return GroupConfig{Radius: 30, Snap: 0.5} }

// Validate checks the configuration.
func (c GroupConfig) Validate() error {
	switch {
	case c.Radius <= 0:
		return fmt.Errorf("mobility: group radius must be positive, got %v", c.Radius)
	case c.Snap <= 0 || c.Snap > 1:
		return fmt.Errorf("mobility: group snap %v outside (0, 1]", c.Snap)
	}
	return nil
}

// GroupMember follows a shared leader model with a persistent offset. It is
// deliberately not SpeedBounded: each step covers Snap·dt of the remaining
// distance to the leader-side target, and that distance is unbounded (a
// teleporting leader, or a far initial placement), so no constant per-second
// displacement ceiling exists.
type GroupMember struct {
	cfg    GroupConfig
	leader Model
	rng    *sim.RNG
	offset world.Vector
	pos    world.Point
	bounds world.Rect
}

var _ Model = (*GroupMember)(nil)

// NewGroupMember attaches a follower to the leader model. The leader must
// be advanced exactly once per step by its own node; members only read its
// current position, so the leader node must be listed before its members
// in the node specs (the engine advances nodes in ID order).
func NewGroupMember(cfg GroupConfig, leader Model, bounds world.Rect, rng *sim.RNG) (*GroupMember, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if leader == nil {
		return nil, fmt.Errorf("mobility: group member requires a leader")
	}
	m := &GroupMember{cfg: cfg, leader: leader, rng: rng, bounds: bounds}
	m.offset = world.Vector{
		DX: rng.Range(-cfg.Radius, cfg.Radius),
		DY: rng.Range(-cfg.Radius, cfg.Radius),
	}
	m.pos = bounds.Clamp(leader.Position().Add(m.offset))
	return m, nil
}

// Position implements Model.
func (m *GroupMember) Position() world.Point { return m.pos }

// Advance implements Model: move toward the leader's current position plus
// this member's offset, proportionally to Snap.
func (m *GroupMember) Advance(dt time.Duration) world.Point {
	target := m.bounds.Clamp(m.leader.Position().Add(m.offset))
	gain := m.cfg.Snap * dt.Seconds()
	if gain > 1 {
		gain = 1
	}
	to := target.Sub(m.pos)
	m.pos = m.bounds.Clamp(m.pos.Add(to.Scale(gain)))
	return m.pos
}
