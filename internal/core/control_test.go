package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
)

func TestControlAppliesAtNextStepBoundary(t *testing.T) {
	cfg, specs := obsTestConfig(t)
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	var applied []time.Duration
	eng.Control(func(now time.Duration) { applied = append(applied, now) })
	if err := eng.RunFor(context.Background(), 3*cfg.Step); err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 {
		t.Fatalf("control applied %d times, want 1", len(applied))
	}
	if applied[0] != cfg.Step {
		t.Fatalf("control applied at %v, want the first step boundary %v", applied[0], cfg.Step)
	}
	// A control enqueued mid-run lands on the following boundary, not the
	// one already processed.
	eng.Control(func(now time.Duration) { applied = append(applied, now) })
	if err := eng.RunFor(context.Background(), 2*cfg.Step); err != nil {
		t.Fatal(err)
	}
	if len(applied) != 2 || applied[1] != 4*cfg.Step {
		t.Fatalf("second control applied at %v (count %d), want %v", applied[len(applied)-1], len(applied), 4*cfg.Step)
	}
}

func TestControlFromAnotherGoroutine(t *testing.T) {
	cfg, specs := obsTestConfig(t)
	cfg.Duration = 10 * time.Hour // long enough that the control lands mid-run
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctx)
		runErr <- err
	}()
	appliedAt := make(chan time.Duration, 1)
	eng.Control(func(now time.Duration) { appliedAt <- now })
	select {
	case at := <-appliedAt:
		if at <= 0 {
			t.Errorf("control applied at %v, want a positive sim time", at)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("control never applied")
	}
	cancel()
	if err := <-runErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel = %v, want context.Canceled", err)
	}
}

func TestSetWorkloadMeanIntervalDisablesGeneration(t *testing.T) {
	cfg, specs := obsTestConfig(t)
	created := &lifecycleObserver{kinds: []report.Kind{report.MessageCreated}}
	cfg.Observers = []obs.Observer{created}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := eng.RunFor(ctx, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(created.events) == 0 {
		t.Fatal("no messages generated in the warm-up segment")
	}
	if err := eng.SetWorkloadMeanInterval(0); err != nil {
		t.Fatal(err)
	}
	boundary := eng.Now()
	if err := eng.RunFor(ctx, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	// The control drains at boundary+step; a pending draw landing on that
	// exact instant legitimately fires first (it was scheduled earlier, and
	// FIFO order at an instant is by schedule time), so the cut-off is one
	// step past the boundary.
	for _, ev := range created.events {
		if ev.At > boundary+cfg.Step {
			t.Fatalf("message created at %v after generation was disabled at %v", ev.At, boundary)
		}
	}
}

func TestSetWorkloadMeanIntervalEnablesGeneration(t *testing.T) {
	cfg, specs := obsTestConfig(t)
	cfg.Workload.MeanInterval = 0 // start with generation off, vocab intact
	created := &lifecycleObserver{kinds: []report.Kind{report.MessageCreated}}
	cfg.Observers = []obs.Observer{created}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := eng.RunFor(ctx, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(created.events) != 0 {
		t.Fatalf("generation disabled but %d messages appeared", len(created.events))
	}
	if err := eng.SetWorkloadMeanInterval(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	boundary := eng.Now()
	if err := eng.RunFor(ctx, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(created.events) == 0 {
		t.Fatal("no messages after re-enabling generation")
	}
	for _, ev := range created.events {
		if ev.At <= boundary {
			t.Fatalf("message created at %v, before generation was enabled at %v", ev.At, boundary)
		}
	}
}

func TestSetWorkloadMeanIntervalValidation(t *testing.T) {
	cfg, specs := obsTestConfig(t)
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetWorkloadMeanInterval(-time.Second); err == nil {
		t.Error("negative interval accepted")
	}

	noVocab, specs2 := obsTestConfig(t)
	noVocab.Workload = core.WorkloadConfig{}
	eng2, err := core.NewEngine(noVocab, specs2)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.SetWorkloadMeanInterval(time.Minute); err == nil {
		t.Error("enabling generation without a vocabulary accepted")
	}
	if err := eng2.SetWorkloadMeanInterval(0); err != nil {
		t.Errorf("disabling generation without a vocabulary rejected: %v", err)
	}
}
