package core

import (
	"testing"
	"time"

	"dtnsim/internal/behavior"
	"dtnsim/internal/message"
)

// outcomeEngine is a two-node engine with no background workload; the
// tests mint their messages on node 0.
func outcomeEngine(t *testing.T) *Engine {
	t.Helper()
	cfg, specs := arenaConfig(t, behavior.CooperativeProfile())
	e, err := NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mintAt mints a 100-byte message of priority prio on node 0 at now.
func mintAt(t *testing.T, e *Engine, prio message.Priority, now time.Duration) *message.Message {
	t.Helper()
	m, err := e.mint(e.nodes[0], now, 100, prio, 0.5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMDRComputation(t *testing.T) {
	e := outcomeEngine(t)
	m1 := mintAt(t, e, message.PriorityHigh, time.Minute)
	mintAt(t, e, message.PriorityLow, time.Minute)
	e.markDelivered(m1, 5, 2*time.Minute)
	r := e.Result()
	if r.Created != 2 || r.Delivered != 1 {
		t.Errorf("created=%d delivered=%d", r.Created, r.Delivered)
	}
	if r.MDR != 0.5 {
		t.Errorf("MDR = %v, want 0.5", r.MDR)
	}
	if r.MeanLatency != time.Minute {
		t.Errorf("latency = %v, want 1m", r.MeanLatency)
	}
}

func TestEmptyReport(t *testing.T) {
	r := outcomeEngine(t).Result()
	if r.MDR != 0 || r.MeanLatency != 0 {
		t.Error("empty result must be zero")
	}
	if r.CreatedByPriority == nil || r.DeliveredByPriority == nil {
		t.Error("empty result must carry empty, not nil, per-priority maps")
	}
}

// TestDeliveredDeduplicatesPairs pins the first-deliverer record: a
// message counts as delivered once, on its first destination, and each
// (message, destination) pair reads as served from then on.
func TestDeliveredDeduplicatesPairs(t *testing.T) {
	e := outcomeEngine(t)
	mintAt(t, e, message.PriorityLow, 0) // an undelivered handle below m's
	m := mintAt(t, e, message.PriorityHigh, 0)
	e.markDelivered(m, 5, time.Minute)
	e.markDelivered(m, 5, 2*time.Minute)
	e.markDelivered(m, 6, 2*time.Minute)
	r := e.Result()
	if r.Delivered != 1 || r.DeliveredByPriority[message.PriorityHigh] != 1 {
		t.Errorf("Delivered (unique messages) = %d, high = %d, want 1 and 1", r.Delivered, r.DeliveredByPriority[message.PriorityHigh])
	}
	if r.MeanLatency != time.Minute {
		t.Errorf("latency = %v, want the first delivery's 1m", r.MeanLatency)
	}
	if !e.wasDelivered(m.Handle, 5) || !e.wasDelivered(m.Handle, 6) || e.wasDelivered(m.Handle, 7) {
		t.Error("wasDelivered wrong")
	}
	// Handles past every delivered one, and below it, read as undelivered.
	if e.wasDelivered(m.Handle+1, 5) || e.wasDelivered(m.Handle-1, 5) {
		t.Error("wasDelivered reports an undelivered handle")
	}
}

func TestPriorityMDR(t *testing.T) {
	e := outcomeEngine(t)
	hi := mintAt(t, e, message.PriorityHigh, 0)
	lo1 := mintAt(t, e, message.PriorityLow, 0)
	mintAt(t, e, message.PriorityLow, 0)
	e.markDelivered(hi, 3, time.Minute)
	e.markDelivered(lo1, 4, time.Minute)
	r := e.Result()
	if got := r.PriorityMDR(message.PriorityHigh); got != 1 {
		t.Errorf("high MDR = %v, want 1", got)
	}
	if got := r.PriorityMDR(message.PriorityLow); got != 0.5 {
		t.Errorf("low MDR = %v, want 0.5", got)
	}
	if got := r.PriorityMDR(message.PriorityMedium); got != 0 {
		t.Errorf("medium MDR = %v, want 0 (none created)", got)
	}
	// A class with a zero count gets no key, as in the Result JSON.
	if _, ok := r.CreatedByPriority[message.PriorityMedium]; ok {
		t.Error("CreatedByPriority has a key for a class never created")
	}
	if _, ok := r.DeliveredByPriority[message.PriorityMedium]; ok {
		t.Error("DeliveredByPriority has a key for a class never delivered")
	}
}

// TestCounters pins the read-back: each outcome counter, found by its
// registry name, feeds its own Result field, and IrrelevantTags is the
// tags added less the relevant ones.
func TestCounters(t *testing.T) {
	e := outcomeEngine(t)
	counters := OutcomeCounters()
	for i, c := range counters {
		e.reg.Counter(c.Name).Add(uint64(i + 1))
	}
	r := e.Result()
	for i, c := range counters {
		if got := c.Field(r); got != i+1 {
			t.Errorf("%s reads %d in Result, want %d", c.Name, got, i+1)
		}
	}
	if want := r.TagsAdded - r.RelevantTags; r.IrrelevantTags != want {
		t.Errorf("IrrelevantTags = %d, want %d", r.IrrelevantTags, want)
	}
}

func TestRatingSeries(t *testing.T) {
	e := outcomeEngine(t)
	e.ratingSeries = append(e.ratingSeries,
		RatingSample{At: time.Minute, MeanMaliciousRating: 2.5},
		RatingSample{At: 2 * time.Minute, MeanMaliciousRating: 1.5})
	r := e.Result()
	if len(r.RatingSeries) != 2 || r.RatingSeries[1].MeanMaliciousRating != 1.5 {
		t.Errorf("series = %v", r.RatingSeries)
	}
	// Result must copy: mutating it must not affect the engine.
	r.RatingSeries[0].MeanMaliciousRating = 99
	if e.Result().RatingSeries[0].MeanMaliciousRating == 99 {
		t.Error("result shares the series backing array")
	}
}

func TestSnapshotMapsAreCopies(t *testing.T) {
	e := outcomeEngine(t)
	m := mintAt(t, e, message.PriorityHigh, 0)
	e.markDelivered(m, 1, time.Minute)
	r := e.Result()
	r.CreatedByPriority[message.PriorityHigh] = 99
	r.DeliveredByPriority[message.PriorityHigh] = 99
	if got := e.Result(); got.CreatedByPriority[message.PriorityHigh] != 1 || got.DeliveredByPriority[message.PriorityHigh] != 1 {
		t.Error("result shares a priority map")
	}
}
