package core_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/interest"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
	"dtnsim/internal/scenario"
)

// lifecycleObserver records everything the engine delivers, in order.
type lifecycleObserver struct {
	obs.Base
	starts     []obs.Meta
	events     []report.Event
	heartbeats []obs.Snapshot
	ends       []obs.Snapshot
	kinds      []report.Kind // nil = subscribe to all
}

func (l *lifecycleObserver) RunStart(m obs.Meta)      { l.starts = append(l.starts, m) }
func (l *lifecycleObserver) Event(ev report.Event)    { l.events = append(l.events, ev) }
func (l *lifecycleObserver) Heartbeat(s obs.Snapshot) { l.heartbeats = append(l.heartbeats, s) }
func (l *lifecycleObserver) RunEnd(s obs.Snapshot)    { l.ends = append(l.ends, s) }
func (l *lifecycleObserver) Kinds() []report.Kind     { return l.kinds }

func obsTestConfig(t *testing.T) (core.Config, []core.NodeSpec) {
	t.Helper()
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = 25
	spec.AreaKm2 = 0.25
	spec.Duration = 20 * time.Minute
	spec.MeanMessageInterval = 5 * time.Minute
	cfg, specs, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, specs
}

func TestEngineObserverLifecycle(t *testing.T) {
	cfg, specs := obsTestConfig(t)
	full := &lifecycleObserver{}
	cfg.Observers = []obs.Observer{full}
	cfg.Heartbeat = time.Nanosecond // fires after effectively every tick
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	if len(full.starts) != 1 || len(full.ends) != 1 {
		t.Fatalf("lifecycle fired %d starts / %d ends, want exactly 1 each", len(full.starts), len(full.ends))
	}
	m := full.starts[0]
	if m.Nodes != 25 || m.Scheme != "incentive" || m.DurationSeconds != 1200 {
		t.Errorf("RunStart meta = %+v", m)
	}
	if len(full.events) == 0 {
		t.Fatal("observer saw no events")
	}
	if len(full.heartbeats) == 0 {
		t.Fatal("no heartbeats at a nanosecond interval")
	}
	// Heartbeat snapshots must be monotonic in both clocks.
	prev := obs.Snapshot{}
	for i, hb := range full.heartbeats {
		if hb.SimSeconds < prev.SimSeconds || hb.WallSeconds < prev.WallSeconds {
			t.Fatalf("heartbeat %d went backwards: %+v after %+v", i, hb, prev)
		}
		prev = hb
	}

	final := full.ends[0]
	if final.SimSeconds != 1200 {
		t.Errorf("final snapshot sim position %v, want 1200", final.SimSeconds)
	}
	if final.Steps == 0 || final.Events == 0 {
		t.Errorf("final snapshot empty: %+v", final)
	}
	if uint64(len(full.events)) != final.Events {
		t.Errorf("observer saw %d events, snapshot says %d", len(full.events), final.Events)
	}
	// The run's contact churn must appear in the counters and match the
	// event stream.
	var ups uint64
	for _, ev := range full.events {
		if ev.Kind == report.ContactUp {
			ups++
		}
	}
	if ups == 0 {
		t.Fatal("no contacts in a 25-node dense scenario")
	}
	if got := final.Counter("contacts_up"); got != ups {
		t.Errorf("contacts_up counter = %d, event stream has %d", got, ups)
	}
	if final.Counter("contacts_down") > ups {
		t.Errorf("contacts_down %d exceeds ups %d", final.Counter("contacts_down"), ups)
	}
}

func TestEngineObserverKindFiltering(t *testing.T) {
	cfg, specs := obsTestConfig(t)
	all := &lifecycleObserver{}
	contactsOnly := &lifecycleObserver{kinds: []report.Kind{report.ContactUp, report.ContactDown}}
	nothing := &lifecycleObserver{kinds: []report.Kind{}}
	cfg.Observers = []obs.Observer{all, contactsOnly, nothing}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(nothing.events) != 0 {
		t.Errorf("empty-kinds observer received %d events", len(nothing.events))
	}
	if len(nothing.starts) != 1 || len(nothing.ends) != 1 {
		t.Error("kind filtering must not suppress lifecycle signals")
	}
	var wantContacts []report.Event
	for _, ev := range all.events {
		if ev.Kind == report.ContactUp || ev.Kind == report.ContactDown {
			wantContacts = append(wantContacts, ev)
		}
	}
	if len(wantContacts) == 0 {
		t.Fatal("no contact events in the run")
	}
	if len(contactsOnly.events) != len(wantContacts) {
		t.Fatalf("filtered observer saw %d events, want %d", len(contactsOnly.events), len(wantContacts))
	}
	for i := range wantContacts {
		if contactsOnly.events[i] != wantContacts[i] {
			t.Fatalf("filtered event %d = %+v, want %+v (order must match the full stream)",
				i, contactsOnly.events[i], wantContacts[i])
		}
	}
}

func TestEngineObserverOrderAndRecorderLast(t *testing.T) {
	cfg, specs := obsTestConfig(t)
	var order []string
	mk := func(name string) obs.Observer {
		return observerFunc{name: name, order: &order}
	}
	// An event writer attached last still sees the stream.
	var buf obs.Buffer
	cfg.Observers = []obs.Observer{mk("first"), mk("second"), &buf}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(buf.Events) == 0 {
		t.Fatal("the last observer, an event buffer, saw nothing")
	}
	if len(order) < 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("first event delivered in order %v, want [first second ...]", order[:min(len(order), 2)])
	}
	for i := 0; i+1 < len(order); i += 2 {
		if order[i] != "first" || order[i+1] != "second" {
			t.Fatalf("delivery order broke at %d: %v", i, order[i:i+2])
		}
	}
}

// observerFunc records its name on every event delivery.
type observerFunc struct {
	obs.Base
	name  string
	order *[]string
}

func (o observerFunc) Event(report.Event) { *o.order = append(*o.order, o.name) }

// TestEngineSnapshotAccessorsDelegate pins the snapshot as the engine's
// single observability surface: the engine's own position accessor agrees
// with it, the kinetic rebuild count is read from its counters, the table
// gauges (live rows, saturated transient rows) agree with a direct count
// over the interest tables they sample, and a mobility run accrues time in
// every phase without the phase sum passing the wall clock. The run goes
// in two segments: at each checkpoint every outcome counter equals the
// Result field it feeds, and the second segment's Snapshot.Sub window
// equals the difference between the two Results.
func TestEngineSnapshotAccessorsDelegate(t *testing.T) {
	cfg, specs := obsTestConfig(t)
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	segment := func() (obs.Snapshot, core.Result) {
		half := cfg.Duration / 2
		if err := eng.RunFor(context.Background(), half); err != nil {
			t.Fatal(err)
		}
		snap, res := eng.Snapshot(), eng.Result()
		for _, c := range core.OutcomeCounters() {
			if got, want := snap.Counter(c.Name), c.Field(res); got != uint64(want) {
				t.Errorf("at %vs: counter %s = %d, Result field = %d", snap.SimSeconds, c.Name, got, want)
			}
		}
		return snap, res
	}
	snap1, res1 := segment()
	snap, res := segment()
	if res1.Created == 0 || res.Transfers == res1.Transfers {
		t.Fatalf("the segments did too little to compare: created %d, transfers %d then %d", res1.Created, res1.Transfers, res.Transfers)
	}
	window := snap.Sub(snap1)
	for _, c := range core.OutcomeCounters() {
		if got, want := window.Counter(c.Name), c.Field(res)-c.Field(res1); got != uint64(want) {
			t.Errorf("window counter %s = %d, Results differ by %d", c.Name, got, want)
		}
	}
	if got := eng.Now().Seconds(); got != snap.SimSeconds {
		t.Errorf("Now() = %vs, snapshot sim position = %vs", got, snap.SimSeconds)
	}
	if snap.Counter("candidate_rebuilds") == 0 {
		t.Error("kinetic detection never rebuilt its candidate list")
	}
	var rows, saturated uint64
	for _, n := range eng.Nodes() {
		tab := n.Interests()
		rows += uint64(tab.Len())
		for _, kw := range tab.Keywords() {
			if r, _ := tab.Row(kw); !r.Direct && r.Weight == interest.MaxWeight {
				saturated++
			}
		}
	}
	if got := snap.Counter("table_rows_live"); got != rows || rows == 0 {
		t.Errorf("table_rows_live gauge = %d, tables hold %d", got, rows)
	}
	if got := snap.Counter("table_rows_saturated"); got != saturated || saturated == 0 {
		t.Errorf("table_rows_saturated gauge = %d, tables hold %d transient rows at MaxWeight", got, saturated)
	}
	// A mobility run spends time in every phase.
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if snap.Phase(p.String()) <= 0 {
			t.Errorf("phase %q has no accrued time", p)
		}
	}
	if sum := snap.PhaseSum(); sum > snap.WallSeconds {
		t.Errorf("phase sum %v exceeds wall clock %v", sum, snap.WallSeconds)
	}
}

func TestConfigValidateRejectsNegativeIntervals(t *testing.T) {
	base, specs := obsTestConfig(t)
	_ = specs
	for _, tc := range []struct {
		name    string
		mutate  func(*core.Config)
		errWant string
	}{
		{"rating sample interval", func(c *core.Config) { c.RatingSampleInterval = -time.Second }, "rating sample interval must be non-negative"},
		{"heartbeat", func(c *core.Config) { c.Heartbeat = -time.Second }, "heartbeat interval must be non-negative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a negative %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.errWant) {
				t.Errorf("error %q does not mention %q", err, tc.errWant)
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("baseline config should validate: %v", err)
	}
}
