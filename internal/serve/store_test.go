package serve

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/obs"
	"dtnsim/internal/scenario"
)

// quickSpec is a spec small enough to complete in well under a second.
func quickSpec() scenario.Spec {
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = 30
	spec.KeywordPool = 40
	spec.InterestsPerNode = 5
	spec.AreaKm2 = 0.5
	spec.Duration = 5 * time.Minute
	spec.Seed = 7
	return spec
}

// longSpec is a spec that keeps running until cancelled on any machine.
func longSpec() scenario.Spec {
	spec := quickSpec()
	spec.Nodes = 120
	spec.AreaKm2 = 1.5
	spec.Duration = 24 * time.Hour
	return spec
}

// waitState polls until the run reaches want or the deadline passes.
func waitState(t *testing.T, r *Run, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if r.Status().State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s: state %q never reached %q", r.ID, r.Status().State, want)
}

func TestRunLifecycleCompletes(t *testing.T) {
	s := NewStore(2, t.TempDir())
	defer s.Close()

	r, err := s.Create(quickSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Status().State; got != StateCreated {
		t.Fatalf("fresh run state = %q, want %q", got, StateCreated)
	}
	if err := s.Start(r.ID); err != nil {
		t.Fatal(err)
	}
	<-r.Done()
	st := r.Status()
	if st.State != StateDone {
		t.Fatalf("state = %q (err %q), want %q", st.State, st.Error, StateDone)
	}
	if st.Result == nil || st.Result.Nodes != 30 {
		t.Fatalf("result = %+v, want 30 nodes", st.Result)
	}
	if st.Final == nil {
		t.Fatal("final snapshot missing after completion")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	s := NewStore(2, t.TempDir())
	defer s.Close()

	r, err := s.Create(longSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(r.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(r.ID); !errors.Is(err, ErrConflict) {
		t.Fatalf("second start err = %v, want ErrConflict", err)
	}
	r.Cancel()
	<-r.Done()
	if got := r.Status().State; got != StateCancelled {
		t.Fatalf("state after cancel = %q, want %q", got, StateCancelled)
	}
}

// TestCancelledRunKeepsPartialResult pins what a cancelled run reports: the
// result it accumulated so far and a final snapshot taken mid-run, not an
// empty result.
func TestCancelledRunKeepsPartialResult(t *testing.T) {
	s := NewStore(1, t.TempDir())
	defer s.Close()

	spec := longSpec()
	r, err := s.Create(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(r.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, r, StateRunning)
	// Let the engine advance at least one step before pulling the plug.
	r.mu.Lock()
	eng := r.eng
	r.mu.Unlock()
	stepped := make(chan struct{})
	eng.Control(func(time.Duration) { close(stepped) })
	select {
	case <-stepped:
	case <-time.After(30 * time.Second):
		t.Fatal("run never started stepping")
	}
	r.Cancel()
	<-r.Done()

	st := r.Status()
	if st.State != StateCancelled {
		t.Fatalf("state = %q (err %q), want %q", st.State, st.Error, StateCancelled)
	}
	if st.Result == nil || st.Result.Nodes != spec.Nodes {
		t.Fatalf("cancelled run result = %+v, want a partial result over %d nodes", st.Result, spec.Nodes)
	}
	if st.Final == nil {
		t.Fatal("cancelled run has no final snapshot")
	}
	if sim := st.Final.SimSeconds; sim <= 0 || sim >= spec.Duration.Seconds() {
		t.Errorf("final snapshot at %v sim seconds, want mid-run", sim)
	}
}

func TestCancelReleasesSlot(t *testing.T) {
	// One execution slot: a long run holds it, a quick run queues behind
	// it, and cancelling the first must let the second run to completion.
	s := NewStore(1, t.TempDir())
	defer s.Close()

	long, err := s.Create(longSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(long.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, long, StateRunning)

	quick, err := s.Create(quickSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(quick.ID); err != nil {
		t.Fatal(err)
	}
	if got := quick.Status().State; got != StateQueued {
		t.Fatalf("second run state = %q, want %q while slot is held", got, StateQueued)
	}

	long.Cancel()
	<-long.Done()
	waitState(t, quick, StateDone)
}

func TestCancelWhileQueuedNeverRuns(t *testing.T) {
	s := NewStore(1, t.TempDir())
	defer s.Close()

	long, err := s.Create(longSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(long.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, long, StateRunning)

	queued, err := s.Create(quickSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(queued.ID); err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	<-queued.Done()
	if got := queued.Status().State; got != StateCancelled {
		t.Fatalf("queued-then-cancelled state = %q, want %q", got, StateCancelled)
	}
	long.Cancel()
	<-long.Done()
}

func TestConfigureOnlyBeforeStart(t *testing.T) {
	s := NewStore(1, t.TempDir())
	defer s.Close()

	r, err := s.Create(quickSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	spec := quickSpec()
	spec.Seed = 99
	if err := r.Configure(spec); err != nil {
		t.Fatal(err)
	}
	if got := r.Spec().Seed; got != 99 {
		t.Fatalf("seed after configure = %d, want 99", got)
	}
	if err := s.Start(r.ID); err != nil {
		t.Fatal(err)
	}
	if err := r.Configure(spec); !errors.Is(err, ErrConflict) {
		t.Fatalf("configure after start err = %v, want ErrConflict", err)
	}
	<-r.Done()
}

func TestTraceExportLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(1, dir)
	defer s.Close()

	// No trace requested: always ErrNoTrace.
	plain, err := s.Create(quickSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.TracePath(); !errors.Is(err, ErrNoTrace) {
		t.Fatalf("traceless run TracePath err = %v, want ErrNoTrace", err)
	}

	r, err := s.Create(quickSpec(), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.TracePath(); !errors.Is(err, ErrConflict) {
		t.Fatalf("unfinished run TracePath err = %v, want ErrConflict", err)
	}
	if err := s.Start(r.ID); err != nil {
		t.Fatal(err)
	}
	<-r.Done()
	path, err := r.TracePath()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("trace spool is empty after a completed run")
	}
}

func TestDeleteRemovesRunAndSpool(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(1, dir)
	defer s.Close()

	r, err := s.Create(quickSpec(), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(r.ID); err != nil {
		t.Fatal(err)
	}
	<-r.Done()
	path, err := r.TracePath()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(r.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(r.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete err = %v, want ErrNotFound", err)
	}
	if err := s.Delete(r.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v, want ErrNotFound", err)
	}
	// Spool removal is asynchronous behind the run goroutine landing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace spool %s still present after delete", path)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConcurrentLifecycle(t *testing.T) {
	// Hammer every verb from many goroutines; run under -race this is the
	// store's memory-model audit. Assertions are deliberately loose — the
	// point is no race, no deadlock, and every surviving run terminal.
	s := NewStore(2, t.TempDir())
	defer s.Close()

	const n = 12
	runs := make([]*Run, n)
	for i := range runs {
		r, err := s.Create(quickSpec(), i%3 == 0)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = r
	}

	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Start(r.ID) // may lose to a concurrent delete; both outcomes fine
		}()
		if i%2 == 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.Cancel()
			}()
		}
		if i%4 == 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Delete(r.ID)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Status()
			s.List()
		}()
	}
	wg.Wait()

	for _, r := range runs {
		if done := r.Done(); done != nil {
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatalf("run %s never landed", r.ID)
			}
			if st := r.Status().State; !st.terminal() {
				t.Fatalf("run %s landed in non-terminal state %q", r.ID, st)
			}
		}
	}
}

func TestSetWorkloadMeanIntervalStates(t *testing.T) {
	s := NewStore(1, t.TempDir())
	defer s.Close()

	r, err := s.Create(longSpec(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetWorkloadMeanInterval(time.Minute); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("unstarted workload update err = %v, want ErrNotStarted", err)
	}
	if err := s.Start(r.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, r, StateRunning)
	if err := r.SetWorkloadMeanInterval(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := r.Spec().MeanMessageInterval; got != 2*time.Minute {
		t.Fatalf("spec interval after update = %v, want 2m", got)
	}
	r.Cancel()
	<-r.Done()
	if err := r.SetWorkloadMeanInterval(time.Minute); !errors.Is(err, ErrConflict) {
		t.Fatalf("terminal workload update err = %v, want ErrConflict", err)
	}
}

// TestUnwritableSpoolFailsRun pins that a trace the service could not
// spool ends the run failed, not done with a truncated download. The spool
// file is closed before execute, so every write and the final close fail.
func TestUnwritableSpoolFailsRun(t *testing.T) {
	s := NewStore(1, t.TempDir())
	defer s.Close()
	r, err := s.Create(quickSpec(), true)
	if err != nil {
		t.Fatal(err)
	}
	cfg, specs, err := scenario.Build(r.Spec())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(s.dir, "closed-*.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	sp := &spool{file: f, w: obs.NewTraceWriter(f)}
	cfg.Observers = append(cfg.Observers, sp.w, r.hub)
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	r.state, r.eng, r.done, r.tracePath = StateQueued, eng, make(chan struct{}), f.Name()

	s.execute(r, context.Background(), eng, r.Spec(), sp)
	st := r.Status()
	if st.State != StateFailed {
		t.Fatalf("state = %q, want %q", st.State, StateFailed)
	}
	if !strings.Contains(st.Error, "trace spool") {
		t.Errorf("error %q does not name the trace spool", st.Error)
	}
	if st.Result == nil {
		t.Error("the simulation itself completed; its result should still be recorded")
	}
}

// TestHTTPTraceMatchesDirectRun is the redesign's keystone: a run created
// through the service with a given scenario.Spec spools an event trace
// byte-identical to wiring the same spec's JSONL writer by hand — exactly
// what a `dtnsim -trace` invocation does.
func TestHTTPTraceMatchesDirectRun(t *testing.T) {
	spec := quickSpec()

	// Direct path: scenario.Build + a JSONL trace writer, the dtnsim wiring.
	cfg, specs, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	cfg.Observers = append(cfg.Observers, obs.NewTraceWriter(&direct))
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Service path: same spec through the store with trace capture.
	s := NewStore(1, t.TempDir())
	defer s.Close()
	r, err := s.Create(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(r.ID); err != nil {
		t.Fatal(err)
	}
	<-r.Done()
	path, err := r.TracePath()
	if err != nil {
		t.Fatal(err)
	}
	served, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(direct.Bytes(), served) {
		t.Fatalf("served trace differs from direct run: direct %d bytes, served %d bytes",
			direct.Len(), len(served))
	}
	if len(served) == 0 {
		t.Fatal("trace is empty — comparison is vacuous")
	}
}
