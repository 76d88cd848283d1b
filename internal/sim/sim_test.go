package sim

import (
	"context"
	"testing"
	"testing/quick"
	"time"
)

func TestNewClockRejectsNonPositiveStep(t *testing.T) {
	for _, step := range []time.Duration{0, -time.Second} {
		if _, err := NewClock(step); err == nil {
			t.Errorf("NewClock(%v) should fail", step)
		}
	}
}

func TestClockAdvance(t *testing.T) {
	c, err := NewClock(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v, want 0", c.Now())
	}
	for i := 1; i <= 5; i++ {
		got := c.Advance()
		if want := time.Duration(i) * time.Second; got != want {
			t.Fatalf("advance %d = %v, want %v", i, got, want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should produce different streams")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	root := NewRNG(1)
	f1 := root.Fork("mobility")
	root2 := NewRNG(1)
	f2 := root2.Fork("mobility")
	for i := 0; i < 50; i++ {
		if f1.Float64() != f2.Float64() {
			t.Fatal("forks with the same label and parent state must match")
		}
	}
	// Different labels diverge.
	g1 := NewRNG(1).Fork("a")
	g2 := NewRNG(1).Fork("b")
	same := true
	for i := 0; i < 10; i++ {
		if g1.Float64() != g2.Float64() {
			same = false
		}
	}
	if same {
		t.Error("forks with different labels should diverge")
	}
}

func TestRNGRange(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := g.Range(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Range(2,5) = %v out of bounds", v)
		}
	}
	if g.Range(3, 3) != 3 {
		t.Error("degenerate range must return lo")
	}
}

func TestRNGCoinExtremes(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 100; i++ {
		if g.Coin(0) {
			t.Fatal("Coin(0) must never be true")
		}
		if !g.Coin(1) {
			t.Fatal("Coin(1) must always be true")
		}
	}
}

func TestRNGCoinFrequency(t *testing.T) {
	g := NewRNG(11)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Coin(0.1) {
			hits++
		}
	}
	freq := float64(hits) / n
	if freq < 0.08 || freq > 0.12 {
		t.Errorf("Coin(0.1) frequency = %v, want ≈0.1", freq)
	}
}

func TestRNGSampleProperties(t *testing.T) {
	g := NewRNG(3)
	check := func(n, k uint8) bool {
		nn := int(n%50) + 1
		kk := int(k % 60)
		s := g.Sample(nn, kk)
		wantLen := kk
		if wantLen > nn {
			wantLen = nn
		}
		if len(s) != wantLen {
			return false
		}
		seen := make(map[int]bool, len(s))
		for _, v := range s {
			if v < 0 || v >= nn || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue()
	var fired []int
	q.ScheduleAt(3*time.Second, func(time.Duration) { fired = append(fired, 3) })
	q.ScheduleAt(1*time.Second, func(time.Duration) { fired = append(fired, 1) })
	q.ScheduleAt(2*time.Second, func(time.Duration) { fired = append(fired, 2) })
	q.RunDue(10 * time.Second)
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Errorf("fired order %v, want [1 2 3]", fired)
	}
}

func TestEventQueueFIFOAtSameInstant(t *testing.T) {
	q := NewEventQueue()
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		q.ScheduleAt(time.Second, func(time.Duration) { fired = append(fired, i) })
	}
	q.RunDue(time.Second)
	for i, v := range fired {
		if v != i {
			t.Fatalf("events at the same instant fired out of order: %v", fired)
		}
	}
}

func TestEventQueueOnlyDueEventsFire(t *testing.T) {
	q := NewEventQueue()
	fired := 0
	q.ScheduleAt(time.Second, func(time.Duration) { fired++ })
	q.ScheduleAt(3*time.Second, func(time.Duration) { fired++ })
	if n := q.RunDue(2 * time.Second); n != 1 || fired != 1 {
		t.Errorf("RunDue(2s) fired %d (counter %d), want 1", n, fired)
	}
	if n := q.RunDue(3 * time.Second); n != 1 || fired != 2 {
		t.Errorf("RunDue(3s) fired %d (counter %d), want the pending 3s event", n, fired)
	}
}

func TestHandleCancelAndReschedule(t *testing.T) {
	q := NewEventQueue()
	var fired []time.Duration
	record := func(at time.Duration) { fired = append(fired, at) }
	cancelled := q.ScheduleAt(time.Second, record)
	moved := q.ScheduleAt(time.Second, record)
	cancelled.Cancel()
	moved.Reschedule(2 * time.Second)
	if n := q.RunDue(time.Second); n != 0 {
		t.Fatalf("RunDue(1s) fired %d events, want the cancelled and moved ones to stay silent", n)
	}
	// A cancelled handle revives on Reschedule, as freshly scheduled: at
	// an instant shared with an earlier schedule it fires second.
	cancelled.Reschedule(2 * time.Second)
	q.RunDue(2 * time.Second)
	if len(fired) != 2 || fired[0] != 2*time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired at %v, want both at 2s", fired)
	}
	cancelled.Cancel() // cancelling a fired event is a no-op
	if n := q.RunDue(time.Hour); n != 0 {
		t.Errorf("RunDue(1h) fired %d stale events", n)
	}
}

func TestEventQueueCascading(t *testing.T) {
	q := NewEventQueue()
	var fired []string
	q.ScheduleAt(time.Second, func(at time.Duration) {
		fired = append(fired, "outer")
		q.ScheduleAt(at, func(time.Duration) { fired = append(fired, "inner") })
	})
	q.RunDue(time.Second)
	if len(fired) != 2 || fired[1] != "inner" {
		t.Errorf("cascaded events = %v, want [outer inner]", fired)
	}
}

func TestEventQueuePropertyOrdered(t *testing.T) {
	g := NewRNG(5)
	q := NewEventQueue()
	var fired []time.Duration
	const n = 200
	for i := 0; i < n; i++ {
		at := time.Duration(g.Intn(1000)) * time.Millisecond
		q.ScheduleAt(at, func(at time.Duration) { fired = append(fired, at) })
	}
	q.RunDue(time.Second)
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for i := 1; i < n; i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events fired out of time order at %d: %v < %v", i, fired[i], fired[i-1])
		}
	}
}

func TestRunnerTickersRunEachStep(t *testing.T) {
	var ticks []time.Duration
	var order []string
	r, err := NewRunner(time.Second, func(now time.Duration) {
		ticks = append(ticks, now)
		order = append(order, "tick")
	})
	if err != nil {
		t.Fatal(err)
	}
	// An event due at a step fires before that step's tick.
	r.Schedule(3*time.Second, func(time.Duration) { order = append(order, "event") })
	steps, err := r.Run(context.Background(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 10 || len(ticks) != 10 {
		t.Fatalf("steps=%d ticks=%d, want 10 each", steps, len(ticks))
	}
	for i, now := range ticks {
		if want := time.Duration(i+1) * time.Second; now != want {
			t.Errorf("tick %d saw %v, want %v", i, now, want)
		}
	}
	if order[1] != "tick" || order[2] != "event" || order[3] != "tick" {
		t.Errorf("order around the 3s step = %v, want tick, event, tick", order[1:4])
	}
}

func TestRunnerContextCancellation(t *testing.T) {
	r, err := NewRunner(time.Second, func(time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx, time.Hour); err == nil {
		t.Error("cancelled context must stop the run with an error")
	}
}

func TestRunnerRejectsNegativeDuration(t *testing.T) {
	r, err := NewRunner(time.Second, func(time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), -time.Second); err == nil {
		t.Error("negative duration must fail")
	}
}
