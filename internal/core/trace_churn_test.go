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
	"dtnsim/internal/trace"
)

// TestTraceChurnReencounterSamePair replays a trace where one pair's first
// encounter ends and its second begins inside a single coarse advance window
// (step 10 s): [1 s, 12 s] and [13 s, 25 s] both transition within the tick
// at 20 s. The replay must tear the old contact down and raise the new one
// in the same tick — processing raises before teardowns would mark the dying
// contact as still seen and silently swallow the re-encounter, because the
// cursor never re-emits a consumed interval. The event trace and the
// aborted-transfer accounting must reflect both encounters.
func TestTraceChurnReencounterSamePair(t *testing.T) {
	sched, err := trace.NewSchedule([]trace.Contact{
		{A: 0, B: 1, Start: 1 * time.Second, End: 12 * time.Second},
		{A: 0, B: 1, Start: 13 * time.Second, End: 25 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.Buffer{}
	cfg := lineConfig(t, core.SchemeIncentive)
	cfg.Step = 10 * time.Second
	cfg.ContactTrace = sched
	cfg.Duration = 40 * time.Second
	cfg.Observers = []obs.Observer{rec}
	specs := []core.NodeSpec{
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(0, 0)},
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(0, 0), Interests: []string{"kw-0"}},
	}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	// A 4 MiB message takes two 10 s steps at the default 250 kB/s link, so
	// each encounter's transfer is still in flight when the teardown hits.
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

	// Both encounters must appear: up at the 10 s and 20 s ticks, down at
	// the 20 s and 30 s ticks, with the 20 s teardown recorded before the
	// 20 s raise (the old encounter ends before the new one starts).
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
		{report.ContactUp, 20 * time.Second},
		{report.ContactDown, 30 * time.Second},
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

	// Each teardown must abort the in-flight transfer of its own encounter:
	// the second abort proves the re-encounter restarted the handover from
	// scratch rather than inheriting the dead contact's state.
	if got := rec.Count(report.TransferAborted); got != 2 {
		t.Errorf("aborted transfer events = %d, want 2", got)
	}
	if res.AbortedTransfers != 2 {
		t.Errorf("res.AbortedTransfers = %d, want 2", res.AbortedTransfers)
	}
	if res.Delivered != 0 {
		t.Errorf("delivered = %d, want 0 (no encounter lasts long enough)", res.Delivered)
	}

	// The merge-diff lifecycle keeps the counters symmetric through
	// same-tick churn, and the arena ends the run with the recycled
	// contact parked on its free list.
	snap := eng.Snapshot()
	if up, down := snap.Counter("contacts_up"), snap.Counter("contacts_down"); up != 2 || down != 2 {
		t.Errorf("contacts_up/down = %d/%d, want 2/2", up, down)
	}
	if live := snap.Counter("contacts_live"); live != 0 {
		t.Errorf("contacts_live = %d, want 0", live)
	}
	if free := snap.Counter("contact_pool_free"); free != 1 {
		t.Errorf("contact_pool_free = %d, want 1 (both encounters recycled one arena object)", free)
	}
}
