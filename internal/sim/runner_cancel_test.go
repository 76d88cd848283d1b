package sim

import (
	"context"
	"testing"
	"time"
)

// Cancellation contract for the kernel: Run must surface ctx.Err() without
// executing further steps, both when the context is dead on arrival and when
// it is cancelled mid-run. The parallel sweep scheduler leans on this to
// stop queued work promptly after a failure.

func TestRunnerAlreadyCancelledReturnsCtxErr(t *testing.T) {
	ticks := 0
	r, err := NewRunner(time.Second, func(time.Duration) { ticks++ })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	steps, err := r.Run(ctx, time.Hour)
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if steps != 0 || ticks != 0 {
		t.Errorf("cancelled run executed %d steps / %d ticks, want 0", steps, ticks)
	}
}

func TestRunnerMidRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ticks := 0
	r, err := NewRunner(time.Second, func(time.Duration) {
		ticks++
		if ticks == 5 {
			cancel()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	steps, err := r.Run(ctx, time.Hour)
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if steps != 5 || ticks != 5 {
		t.Errorf("steps = %d, ticks = %d, want 5 each (stop on the cancelling step)", steps, ticks)
	}
	if r.Clock().Now() != 5*time.Second {
		t.Errorf("clock = %v, want 5s", r.Clock().Now())
	}
}
