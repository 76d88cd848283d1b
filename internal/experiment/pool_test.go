package experiment

import (
	"context"
	"strings"
	"testing"
	"time"

	"dtnsim/internal/core"
)

// poolCtx wires a fresh pool into a context.
func poolCtx(workers int) context.Context {
	return WithPool(context.Background(), NewPool(workers))
}

// TestParallelOutputMatchesSequential is the scheduler's core guarantee:
// because results land in pre-indexed slots and aggregation follows
// submission order, every printed table is byte-identical whether the jobs
// ran on one worker (the sequential path) or raced across eight.
func TestParallelOutputMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	p := tinyProfile()
	p.Seeds = []int64{1, 2}
	render := func(ctx context.Context) string {
		var b strings.Builder
		tab1, _, err := Fig51(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		tab6, _, err := Fig56(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tab1.String())
		b.WriteString(tab6.String())
		return b.String()
	}
	sequential := render(poolCtx(1))
	parallel := render(poolCtx(8))
	if sequential != parallel {
		t.Errorf("parallel tables differ from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", sequential, parallel)
	}
	if noPool := render(context.Background()); noPool != sequential {
		t.Errorf("transient-pool tables differ from sequential:\n--- sequential ---\n%s\n--- transient ---\n%s", sequential, noPool)
	}
}

func TestRunJobsAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(poolCtx(2))
	cancel()
	p := tinyProfile()
	if _, err := runAveraged(ctx, p.baseSpec(core.SchemeChitChat), p.Seeds); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunJobsMidRunCancellation(t *testing.T) {
	p := tinyProfile()
	p.Duration = 200 * time.Hour // far longer than the test may run
	p.Seeds = []int64{1, 2, 3, 4}
	ctx, cancel := context.WithCancel(poolCtx(2))
	time.AfterFunc(20*time.Millisecond, cancel)
	done := make(chan error, 1)
	go func() {
		_, err := runAveraged(ctx, p.baseSpec(core.SchemeChitChat), p.Seeds)
		done <- err
	}()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled sweep did not return")
	}
}

// TestRunJobsPropagatesJobError checks that one failing job surfaces its
// error and cancels the group instead of hanging or averaging garbage.
func TestRunJobsPropagatesJobError(t *testing.T) {
	p := tinyProfile()
	spec := p.baseSpec(core.SchemeChitChat)
	spec.Nodes = 0 // fails scenario validation inside the job
	if _, err := runAveraged(poolCtx(2), spec, []int64{1, 2, 3}); err == nil {
		t.Error("invalid spec must fail the sweep")
	}
}

// TestCancelledWaitWithdrawsQueuedJobs pins the cancellation contract: when
// a job's context dies while it still waits for a token behind a busy
// slot, it returns immediately — it must not wait for the slot just to
// skip itself — and its function never runs.
func TestCancelledWaitWithdrawsQueuedJobs(t *testing.T) {
	pool := NewPool(1)

	// Occupy the only slot until the test ends.
	holdCtx, release := context.WithCancel(context.Background())
	defer release()
	holding := make(chan struct{})
	held := make(chan error, 1)
	go func() {
		held <- pool.Run(context.Background(), 0, func(context.Context) error {
			close(holding)
			<-holdCtx.Done()
			return nil
		})
	}()
	<-holding

	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	time.AfterFunc(10*time.Millisecond, cancel)
	done := make(chan error, 1)
	go func() {
		done <- pool.Run(ctx, 0, func(context.Context) error {
			ran = true
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled wait stayed blocked behind a busy slot")
	}
	release()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("cancelled job ran anyway")
	}
}

func TestProgressCounters(t *testing.T) {
	pr := NewProgress()
	pool := NewPool(2)
	pool.SetProgress(pr)
	jobs := make([]poolJob, 5)
	for i := range jobs {
		jobs[i] = poolJob{simSeconds: 3600, run: func(context.Context) error { return nil }}
	}
	if err := pool.runAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	s := pr.Snapshot()
	if s.Total != 5 || s.Done != 5 {
		t.Errorf("snapshot = %d/%d, want 5/5", s.Done, s.Total)
	}
	if s.SimSeconds != 5*3600 {
		t.Errorf("sim seconds = %v, want %v", s.SimSeconds, 5*3600)
	}
	if s.Throughput() <= 0 {
		t.Errorf("throughput = %v, want > 0", s.Throughput())
	}
	line := s.String()
	if !strings.Contains(line, "jobs 5/5") || !strings.Contains(line, "sim-s/wall-s") {
		t.Errorf("status line = %q", line)
	}
}

// TestProgressCreditsOnlySimulatedTime pins that a cancelled sweep credits
// only the simulated time it actually ran: every job still counts as done,
// but none of the cancelled 200-hour jobs credits its span.
func TestProgressCreditsOnlySimulatedTime(t *testing.T) {
	p := tinyProfile()
	p.Duration = 200 * time.Hour // far longer than the test may run
	p.Seeds = []int64{1, 2, 3, 4}
	pr := NewProgress()
	pool := NewPool(2)
	pool.SetProgress(pr)
	ctx, cancel := context.WithCancel(WithPool(context.Background(), pool))
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := runAveraged(ctx, p.baseSpec(core.SchemeChitChat), p.Seeds); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	s := pr.Snapshot()
	if s.Total != 4 || s.Done != 4 {
		t.Errorf("snapshot = %d/%d, want 4/4", s.Done, s.Total)
	}
	if span := p.Duration.Seconds(); s.SimSeconds >= span {
		t.Errorf("cancelled sweep credited %v sim seconds, want below one job's span %v", s.SimSeconds, span)
	}
}

func TestProgressETA(t *testing.T) {
	s := Snapshot{Total: 10, Done: 5, Elapsed: 10 * time.Second}
	eta, ok := s.ETA()
	if !ok || eta != 10*time.Second {
		t.Errorf("ETA = %v, %v; want 10s at the observed rate", eta, ok)
	}
	if _, ok := (Snapshot{Total: 10}).ETA(); ok {
		t.Error("ETA must not be available before the first completion")
	}
}
