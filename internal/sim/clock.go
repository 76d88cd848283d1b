// Package sim provides the discrete-time simulation kernel used by the DTN
// engine: a virtual clock, a deterministic random source, a scheduled event
// queue, and a run loop that fires due events and calls one tick function
// step by step.
//
// The kernel is deliberately unaware of networking concepts; the DTN engine
// in internal/core composes it with the world, mobility, and radio
// substrates. This mirrors the split in the ONE simulator between its core
// scheduler and its DTN-specific modules.
package sim

import (
	"fmt"
	"time"
)

// Clock is the virtual simulation clock. Time starts at zero and advances in
// fixed steps. All timestamps in the simulator (message creation, interest
// decay anchors, contact start times) are durations since simulation start.
type Clock struct {
	now  time.Duration
	step time.Duration
}

// NewClock returns a clock that advances by step per tick. Step must be
// positive.
func NewClock(step time.Duration) (*Clock, error) {
	if step <= 0 {
		return nil, fmt.Errorf("sim: clock step must be positive, got %v", step)
	}
	return &Clock{step: step}, nil
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Step returns the tick granularity.
func (c *Clock) Step() time.Duration { return c.step }

// Advance moves the clock forward one step and returns the new time.
func (c *Clock) Advance() time.Duration {
	c.now += c.step
	return c.now
}
