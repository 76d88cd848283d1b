package core

import (
	"context"
	"testing"
	"time"

	"dtnsim/internal/behavior"
	"dtnsim/internal/enrich"
	"dtnsim/internal/mobility"
	"dtnsim/internal/world"
)

// White-box regression tests for the engine's periodic machinery: the
// deadline grid must not drift with the step size, torn-down contacts must
// account for their whole queue, and a long-lived contact's transfer queue
// must not pin its consumed prefix.

func TestNextDeadlineStaysOnGrid(t *testing.T) {
	const interval = 5 * time.Minute
	cases := []struct {
		due, now, want time.Duration
	}{
		// Fired exactly on time.
		{300 * time.Second, 300 * time.Second, 600 * time.Second},
		// Fired one late tick after the deadline (step 7 s): the next
		// deadline stays on the grid instead of drifting to now+interval.
		{300 * time.Second, 301 * time.Second, 600 * time.Second},
		// Stalled for several intervals: catch up past now in one move
		// without queueing a burst of firings.
		{300 * time.Second, 1000 * time.Second, 1200 * time.Second},
		// Stalled landing exactly on a grid point: due must end up after
		// now, not equal to it.
		{300 * time.Second, 900 * time.Second, 1200 * time.Second},
	}
	for _, c := range cases {
		if got := nextDeadline(c.due, interval, c.now); got != c.want {
			t.Errorf("nextDeadline(%v, %v, %v) = %v, want %v", c.due, interval, c.now, got, c.want)
		}
	}
}

// periodicConfig is a minimal malicious-population scenario: two honest
// watchers and one malicious node, stationary and in range, no background
// workload.
func periodicConfig(t *testing.T, step time.Duration) (Config, []NodeSpec) {
	t.Helper()
	vocab, err := enrich.NewVocabulary(20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = SchemeIncentive
	cfg.Area = world.Rect{Width: 1000, Height: 1000}
	cfg.Duration = 21 * time.Minute
	cfg.Step = step
	cfg.Workload = DefaultWorkload(vocab)
	cfg.Workload.MeanInterval = 0
	cfg.RatingSampleInterval = 5 * time.Minute
	stationary := func(x, y float64) *mobility.Stationary {
		return &mobility.Stationary{At: world.Point{X: x, Y: y}}
	}
	specs := []NodeSpec{
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(100, 100)},
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(180, 100)},
		{Profile: behavior.MaliciousProfile(true), Mobility: stationary(140, 160)},
	}
	return cfg, specs
}

// TestRatingSampleTimestampsStepIndependent pins the drift fix: rating
// samples must land on the k·interval grid whether or not the step divides
// the interval. Before the fix, a 7 s step pushed each firing one tick past
// the deadline and rescheduled from the firing time, so the whole series
// drifted later and later.
func TestRatingSampleTimestampsStepIndependent(t *testing.T) {
	var reference []time.Duration
	for _, step := range []time.Duration{3 * time.Second, 7 * time.Second} {
		cfg, specs := periodicConfig(t, step)
		eng, err := NewEngine(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.RatingSeries) == 0 {
			t.Fatalf("step %v: no rating samples", step)
		}
		var got []time.Duration
		for _, s := range res.RatingSeries {
			got = append(got, s.At)
		}
		for k, at := range got {
			want := time.Duration(k+1) * cfg.RatingSampleInterval
			if at != want {
				t.Errorf("step %v: sample %d at %v, want %v", step, k, at, want)
			}
		}
		if reference == nil {
			reference = got
			continue
		}
		if len(got) != len(reference) {
			t.Errorf("sample counts differ across step sizes: %d vs %d", len(got), len(reference))
		}
	}
}

// TestContactDownCountsQueuedTransfers pins the abort-accounting fix: a
// contact torn down with queued-but-unstarted transfers must record every
// one of them as aborted, not just the mid-flight one, and count the
// queued ones apart on aborted_queued.
func TestContactDownCountsQueuedTransfers(t *testing.T) {
	cfg, specs := periodicConfig(t, 2*time.Second)
	eng, err := NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	// One tick forms the contacts between the stationary in-range nodes.
	if _, err := eng.runner.RunUntil(context.Background(), cfg.Step); err != nil {
		t.Fatal(err)
	}
	if len(eng.contactList) == 0 {
		t.Fatal("no contacts formed")
	}
	var c *contact
	for _, cand := range eng.contactList {
		if cand.open {
			c = cand
			break
		}
	}
	if c == nil {
		t.Fatal("no open contact formed")
	}

	dev, err := eng.Device(c.a.id)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dev.Annotate([]string{"kw-0"}, []string{"kw-0"}, 1<<20, 2, 0.9)
	if err != nil {
		t.Fatal(err)
	}

	before := eng.Result().AbortedTransfers
	queuedBefore := eng.Snapshot().Counter("aborted_queued")
	if c.active == nil {
		c.active = &transfer{from: c.a, to: c.b, msg: m}
	}
	queued := len(c.pending()) + 3
	for i := 0; i < 3; i++ {
		c.push(&transfer{from: c.a, to: c.b, msg: m})
	}
	eng.contactDown(c)

	if got, want := eng.Result().AbortedTransfers-before, 1+queued; got != want {
		t.Errorf("aborted transfers = %d, want %d (1 active + %d queued)", got, want, queued)
	}
	if got := eng.Snapshot().Counter("aborted_queued") - queuedBefore; got != uint64(queued) {
		t.Errorf("aborted_queued moved by %d, want %d", got, queued)
	}
	// Teardown keeps the backing array for the contact's next arena life
	// but must leave no pending transfers behind.
	if len(c.pending()) != 0 || c.queueHead != 0 {
		t.Errorf("queue not cleared: pending=%d head=%d", len(c.pending()), c.queueHead)
	}
}

// TestContactQueueDoesNotGrowMonotonically pins the popValid memory fix: a
// long-lived contact that keeps enqueueing and draining transfers must reuse
// its queue storage instead of reslicing away the consumed head and growing
// the backing array for the life of the encounter.
func TestContactQueueDoesNotGrowMonotonically(t *testing.T) {
	c := &contact{}
	mk := func(i int) *transfer { return &transfer{elapsed: time.Duration(i)} }

	// Steady state: one in, one out, ten thousand times.
	maxCap := 0
	for i := 0; i < 10000; i++ {
		c.push(mk(i))
		got := c.pop()
		if got == nil || got.elapsed != time.Duration(i) {
			t.Fatalf("pop %d = %+v, want elapsed %d", i, got, i)
		}
		if cap(c.queue) > maxCap {
			maxCap = cap(c.queue)
		}
	}
	if maxCap > 64 {
		t.Errorf("steady-state queue capacity grew to %d", maxCap)
	}

	// Backlogged state: the queue holds ~64 pending transfers while 10k
	// flow through; compaction must keep the buffer near the backlog size.
	c = &contact{}
	for i := 0; i < 64; i++ {
		c.push(mk(i))
	}
	next := 0
	for i := 64; i < 10064; i++ {
		c.push(mk(i))
		got := c.pop()
		if got == nil || got.elapsed != time.Duration(next) {
			t.Fatalf("pop = %+v, want elapsed %d (FIFO order)", got, next)
		}
		next++
		if cap(c.queue) > maxCap {
			maxCap = cap(c.queue)
		}
	}
	if maxCap > 1024 {
		t.Errorf("backlogged queue capacity grew to %d", maxCap)
	}

	// Drain and verify emptiness semantics.
	for c.pop() != nil {
	}
	if got := c.pop(); got != nil {
		t.Errorf("pop on empty queue = %+v, want nil", got)
	}
	if len(c.pending()) != 0 {
		t.Errorf("pending on empty queue = %d entries", len(c.pending()))
	}
}

// TestEngineRunHonoursCancelledContext covers the engine half of the
// cancellation contract: an already-cancelled context returns ctx.Err()
// immediately, and a mid-run cancellation stops a long simulation promptly
// without deadlock.
func TestEngineRunHonoursCancelledContext(t *testing.T) {
	cfg, specs := periodicConfig(t, 2*time.Second)
	eng, err := NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx); err != context.Canceled {
		t.Errorf("already-cancelled Run err = %v, want context.Canceled", err)
	}
	if eng.Now() != 0 {
		t.Errorf("cancelled run advanced the clock to %v", eng.Now())
	}

	cfg2, specs2 := periodicConfig(t, 2*time.Second)
	cfg2.Duration = 200 * time.Hour // far longer than the test may run
	eng2, err := NewEngine(cfg2, specs2)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel2)
	done := make(chan error, 1)
	go func() {
		_, err := eng2.Run(ctx2)
		done <- err
	}()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("mid-run cancellation err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("engine did not stop after cancellation")
	}
}
