package core_test

import (
	"context"
	"testing"
	"time"

	"dtnsim/internal/behavior"
	"dtnsim/internal/core"
	"dtnsim/internal/message"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
	"dtnsim/internal/world"
)

// scripted is a test mobility model that plays back a fixed per-tick
// position sequence, holding the last position once the script runs out.
type scripted struct {
	at     world.Point
	script []world.Point
	next   int
}

func (s *scripted) Position() world.Point { return s.at }

func (s *scripted) Advance(time.Duration) world.Point {
	if s.next < len(s.script) {
		s.at = s.script[s.next]
		s.next++
	}
	return s.at
}

// TestGridChurnReencounterSamePair drives pair churn through the grid
// detection path and the merge-diff lifecycle: node A bounces out of radio
// range for one tick and back, so the pair laps and re-forms on consecutive
// ticks. The re-encounter must be a fresh contact — in-flight transfer
// aborted at the teardown, handover restarted from byte zero on the new
// contact — even though the arena hands back the recycled object. This is
// the grid twin of TestTraceChurnReencounterSamePair.
func TestGridChurnReencounterSamePair(t *testing.T) {
	rec := &obs.Buffer{}
	cfg := lineConfig(t, core.SchemeIncentive)
	cfg.Step = 10 * time.Second
	cfg.Duration = 60 * time.Second
	cfg.Observers = []obs.Observer{rec}
	in := world.Point{X: 150, Y: 100}  // 50 m from B: inside the 100 m range
	out := world.Point{X: 500, Y: 100} // 400 m: far outside
	mob := &scripted{at: out, script: []world.Point{in, out, in, in, in, in}}
	specs := []core.NodeSpec{
		{Profile: behavior.CooperativeProfile(), Mobility: mob},
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(100, 100), Interests: []string{"kw-0"}},
	}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	// A 4 MiB message takes two 10 s steps at the default 250 kB/s link:
	// the first encounter (one tick in range) can never finish it, and the
	// second can only finish it by restarting — a handover that inherited
	// the aborted transfer's progress would complete a tick early.
	devA, err := eng.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := devA.Annotate([]string{"kw-0"}, []string{"kw-0"}, 4<<20, message.PriorityHigh, 0.9); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var transitions []report.Event
	for _, ev := range rec.Events {
		if ev.Kind == report.ContactUp || ev.Kind == report.ContactDown {
			transitions = append(transitions, ev)
		}
	}
	want := []struct {
		kind report.Kind
		at   time.Duration
	}{
		{report.ContactUp, 10 * time.Second},
		{report.ContactDown, 20 * time.Second},
		{report.ContactUp, 30 * time.Second},
	}
	if len(transitions) != len(want) {
		t.Fatalf("contact transitions = %+v, want %d events", transitions, len(want))
	}
	for i, w := range want {
		if transitions[i].Kind != w.kind || transitions[i].At != w.at {
			t.Errorf("transition %d = %v@%v, want %v@%v",
				i, transitions[i].Kind, transitions[i].At, w.kind, w.at)
		}
	}

	if got := rec.Count(report.TransferAborted); got != 1 {
		t.Errorf("aborted transfer events = %d, want 1 (first encounter's in-flight handover)", got)
	}
	if res.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", res.Delivered)
	}
	// Restart-from-scratch proof: 4 MiB at 250 kB/s needs two steps from
	// the 30 s re-raise (the raise tick moves the first 2.5 MB), so
	// delivery lands at 40 s. Inheriting the first encounter's progress
	// (~1.5 MB left) would finish within the raise tick at 30 s.
	for _, ev := range rec.Events {
		if ev.Kind == report.Delivered && ev.At != 40*time.Second {
			t.Errorf("delivery at %v, want 40s (transfer must restart from byte zero)", ev.At)
		}
	}

	// Counter symmetry across the churn: two raises, and at run end the
	// still-open contact has not lapsed, so exactly one teardown.
	snap := eng.Snapshot()
	if up, down := snap.Counter("contacts_up"), snap.Counter("contacts_down"); up != 2 || down != 1 {
		t.Errorf("contacts_up/down = %d/%d, want 2/1", up, down)
	}
	if live := snap.Counter("contacts_live"); live != 1 {
		t.Errorf("contacts_live = %d, want 1", live)
	}
}
