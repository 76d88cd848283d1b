package sim

import (
	"context"
	"fmt"
	"time"
)

// Runner drives a hybrid event/step simulation: a clock, one event queue
// and one tick function. Each step it advances the clock, fires the events
// due at or before the new time, then calls the tick. Deterministic
// ordering is a correctness requirement — the paper's results are averages
// over seeded runs, and reproducing a run must reproduce its exact event
// interleaving. The rules are:
//
//   - events due at or before a step fire before that step's tick, in
//     (time, FIFO-at-equal-time) order;
//   - the tick owns everything else, periodic work included: it checks its
//     own deadlines against the time it is given.
type Runner struct {
	clock  *Clock
	events *EventQueue
	tick   func(now time.Duration)
}

// NewRunner returns a runner with the given tick granularity that calls
// tick once per step.
func NewRunner(step time.Duration, tick func(now time.Duration)) (*Runner, error) {
	clock, err := NewClock(step)
	if err != nil {
		return nil, err
	}
	return &Runner{clock: clock, events: NewEventQueue(), tick: tick}, nil
}

// Clock exposes the virtual clock.
func (r *Runner) Clock() *Clock { return r.clock }

// Schedule enqueues an event at an absolute virtual time and returns its
// handle for cancellation or rescheduling. Events scheduled in the past fire
// on the next step, before that step's tick.
func (r *Runner) Schedule(at time.Duration, fire Event) *Handle {
	return r.events.ScheduleAt(at, fire)
}

// step advances one tick: clock, due events, tick.
func (r *Runner) step() {
	now := r.clock.Advance()
	r.events.RunDue(now)
	r.tick(now)
}

// Run advances the simulation until the clock reaches d (inclusive of the
// final step) or ctx is cancelled. It returns the number of steps executed.
func (r *Runner) Run(ctx context.Context, d time.Duration) (int, error) {
	if d < 0 {
		return 0, fmt.Errorf("sim: negative run duration %v", d)
	}
	return r.RunUntil(ctx, d)
}

// RunUntil advances the simulation until the clock reaches the absolute
// virtual time target or ctx is cancelled, returning the number of steps
// executed. A target at or before the current time is a no-op. This is the
// single stepping loop: Run and the engine's partial-run paths all funnel
// through it so cancellation and step accounting live in one place.
func (r *Runner) RunUntil(ctx context.Context, target time.Duration) (int, error) {
	steps := 0
	for r.clock.Now() < target {
		select {
		case <-ctx.Done():
			return steps, ctx.Err()
		default:
		}
		r.step()
		steps++
	}
	return steps, nil
}
