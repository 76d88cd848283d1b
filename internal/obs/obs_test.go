package obs_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dtnsim/internal/obs"
	"dtnsim/internal/report"
)

func TestRegistryCounterOrderAndValues(t *testing.T) {
	r := obs.NewRegistry()
	a := r.Counter("alpha")
	b := r.Counter("beta")
	if again := r.Counter("alpha"); again != a {
		t.Fatal("re-registering a name must return the same handle")
	}
	a.Inc()
	a.Add(4)
	b.Inc()
	if a.Value() != 5 || b.Value() != 1 {
		t.Fatalf("counter values = %d, %d; want 5, 1", a.Value(), b.Value())
	}
	snap := r.Snapshot(10*time.Second, 2*time.Second, 10, 7)
	want := []obs.CounterValue{{Name: "alpha", Value: 5}, {Name: "beta", Value: 1}}
	if len(snap.Counters) != len(want) {
		t.Fatalf("snapshot has %d counters, want %d", len(snap.Counters), len(want))
	}
	for i, w := range want {
		if snap.Counters[i] != w {
			t.Errorf("counter[%d] = %+v, want %+v (registration order must be preserved)", i, snap.Counters[i], w)
		}
	}
}

func TestRegistryPhaseAccrual(t *testing.T) {
	r := obs.NewRegistry()
	r.AddPhase(obs.PhaseMove, 100*time.Millisecond)
	r.AddPhase(obs.PhaseMove, 50*time.Millisecond)
	r.AddPhase(obs.PhaseExchange, 200*time.Millisecond)
	r.AddPhase(obs.Phase(-1), time.Hour) // ignored
	r.AddPhase(obs.NumPhases, time.Hour) // ignored
	snap := r.Snapshot(0, 0, 0, 0)
	if got := snap.Phase("move"); got != 0.15 {
		t.Errorf("snapshot move phase = %v, want 0.15", got)
	}
	if got := snap.Phase("exchange"); got != 0.2 {
		t.Errorf("snapshot exchange phase = %v, want 0.2", got)
	}
	if got := snap.PhaseSum(); got != 0.35 {
		t.Errorf("PhaseSum = %v, want 0.35", got)
	}
}

func TestPhaseNames(t *testing.T) {
	want := []string{"move", "detect", "contacts", "exchange", "events"}
	if int(obs.NumPhases) != len(want) {
		t.Fatalf("NumPhases = %d, want %d", obs.NumPhases, len(want))
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if got := p.String(); got != want[p] {
			t.Errorf("Phase(%d).String() = %q, want %q", int(p), got, want[p])
		}
	}
	if s := obs.Phase(99).String(); s != "phase-99" {
		t.Errorf("unknown phase String() = %q", s)
	}
}

func TestSnapshotRatesAndLookups(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("hits").Add(30)
	snap := r.Snapshot(20*time.Second, 2*time.Second, 20, 40)
	if snap.SimSeconds != 20 || snap.WallSeconds != 2 {
		t.Fatalf("positions: %+v", snap)
	}
	if snap.EventsPerWallSec != 20 {
		t.Errorf("EventsPerWallSec = %v, want 20", snap.EventsPerWallSec)
	}
	if snap.SimPerWallSec != 10 {
		t.Errorf("SimPerWallSec = %v, want 10", snap.SimPerWallSec)
	}
	if got := snap.Counter("hits"); got != 30 {
		t.Errorf("Counter(hits) = %d", got)
	}
	if got := snap.Counter("missing"); got != 0 {
		t.Errorf("Counter(missing) = %d, want 0", got)
	}
	if got := snap.Phase("missing"); got != 0 {
		t.Errorf("Phase(missing) = %v, want 0", got)
	}
	// Zero wall time must not divide by zero.
	zero := r.Snapshot(time.Second, 0, 1, 1)
	if zero.EventsPerWallSec != 0 || zero.SimPerWallSec != 0 {
		t.Errorf("zero-wall rates = %v, %v; want 0, 0", zero.EventsPerWallSec, zero.SimPerWallSec)
	}
}

func TestSnapshotSub(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("transfers")
	r.AddPhase(obs.PhaseMove, time.Second)
	c.Add(10)
	first := r.Snapshot(10*time.Second, 4*time.Second, 10, 100)
	c.Add(5)
	r.AddPhase(obs.PhaseMove, 3*time.Second)
	second := r.Snapshot(30*time.Second, 8*time.Second, 30, 300)

	w := second.Sub(first)
	if w.SimSeconds != 20 || w.WallSeconds != 4 || w.Steps != 20 || w.Events != 200 {
		t.Fatalf("window coordinates wrong: %+v", w)
	}
	if w.Counter("transfers") != 5 {
		t.Errorf("window transfers = %d, want 5", w.Counter("transfers"))
	}
	if got := w.Phase("move"); got != 3 {
		t.Errorf("window move phase = %v, want 3", got)
	}
	if w.EventsPerWallSec != 50 {
		t.Errorf("window EventsPerWallSec = %v, want 50", w.EventsPerWallSec)
	}
	if w.SimPerWallSec != 5 {
		t.Errorf("window SimPerWallSec = %v, want 5", w.SimPerWallSec)
	}
}

func TestJSONLSinkLifecycle(t *testing.T) {
	var buf bytes.Buffer
	s := obs.NewJSONLSink(&buf)
	if ks := s.Kinds(); ks == nil || len(ks) != 0 {
		t.Fatalf("JSONLSink.Kinds() = %v, want empty non-nil (no event subscription)", ks)
	}
	r := obs.NewRegistry()
	r.Counter("contacts_up").Add(3)
	s.RunStart(obs.Meta{Nodes: 12, Scheme: "incentive", Seed: 7})
	s.Heartbeat(r.Snapshot(5*time.Second, time.Second, 5, 9))
	s.RunEnd(r.Snapshot(10*time.Second, 2*time.Second, 10, 21))
	if s.Err() != nil {
		t.Fatal(s.Err())
	}

	var types []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec struct {
			Type     string        `json:"type"`
			Meta     *obs.Meta     `json:"meta"`
			Snapshot *obs.Snapshot `json:"snapshot"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		types = append(types, rec.Type)
		switch rec.Type {
		case "run_start":
			if rec.Meta == nil || rec.Meta.Nodes != 12 || rec.Meta.Scheme != "incentive" {
				t.Errorf("run_start meta = %+v", rec.Meta)
			}
		case "heartbeat", "run_end":
			if rec.Snapshot == nil || rec.Snapshot.Counter("contacts_up") != 3 {
				t.Errorf("%s snapshot = %+v", rec.Type, rec.Snapshot)
			}
		}
	}
	want := []string{"run_start", "heartbeat", "run_end"}
	if len(types) != 3 || types[0] != want[0] || types[1] != want[1] || types[2] != want[2] {
		t.Errorf("line types = %v, want %v", types, want)
	}
}

// failWriter fails after n successful writes.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, bytes.ErrTooLarge
	}
	f.n--
	return len(p), nil
}

func TestJSONLSinkSticksOnFirstError(t *testing.T) {
	s := obs.NewJSONLSink(&failWriter{n: 1})
	s.RunStart(obs.Meta{})
	if s.Err() != nil {
		t.Fatalf("first write failed unexpectedly: %v", s.Err())
	}
	s.RunEnd(obs.Snapshot{})
	if s.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	s.Heartbeat(obs.Snapshot{}) // must not panic or clear the error
	if s.Err() == nil {
		t.Fatal("error must stick")
	}
}

func TestLogSinkLines(t *testing.T) {
	var buf bytes.Buffer
	s := obs.NewLogSink(&buf)
	if ks := s.Kinds(); ks == nil || len(ks) != 0 {
		t.Fatalf("LogSink.Kinds() = %v, want empty non-nil", ks)
	}
	r := obs.NewRegistry()
	r.AddPhase(obs.PhaseExchange, time.Second)
	s.RunStart(obs.Meta{Nodes: 9, Scheme: "chitchat", DurationSeconds: 60})
	s.Heartbeat(r.Snapshot(30*time.Second, time.Second, 30, 12))
	s.RunEnd(r.Snapshot(60*time.Second, 2*time.Second, 60, 24))
	out := buf.String()
	for _, want := range []string{"run start", "heartbeat", "run end", "9 nodes", "exchange 100%"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 3 {
		t.Errorf("want 3 lines, got %d:\n%s", got, out)
	}
}

// baseOnly embeds Base with no overrides: it must satisfy Observer.
type baseOnly struct{ obs.Base }

func TestBaseIsCompleteNoOp(t *testing.T) {
	var o obs.Observer = baseOnly{}
	o.RunStart(obs.Meta{})
	o.Event(report.Event{Kind: report.Payment})
	o.Heartbeat(obs.Snapshot{})
	o.RunEnd(obs.Snapshot{})
}
