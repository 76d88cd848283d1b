package metrics

import (
	"testing"
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
)

// nextHandle numbers the test messages densely, as the engine does.
var nextHandle message.Handle

func msg(t *testing.T, id string, prio message.Priority) *message.Message {
	t.Helper()
	nextHandle++
	m, err := message.New(ident.MessageID(id), nextHandle, 1, ident.RoleOperator, time.Minute, 100, prio, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMDRComputation(t *testing.T) {
	c := NewCollector()
	m1 := msg(t, "a", message.PriorityHigh)
	m2 := msg(t, "b", message.PriorityLow)
	c.MessageCreated(m1)
	c.MessageCreated(m2)
	c.Delivered(m1, ident.NodeID(5), 2*time.Minute)
	r := c.Snapshot()
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
	r := NewCollector().Snapshot()
	if r.MDR != 0 || r.MeanLatency != 0 {
		t.Error("empty report must be zero")
	}
}

func TestDeliveredDeduplicatesPairs(t *testing.T) {
	c := NewCollector()
	m := msg(t, "a", message.PriorityHigh)
	c.MessageCreated(m)
	if !c.Delivered(m, 5, time.Minute) {
		t.Error("first delivery must be new")
	}
	if c.Delivered(m, 5, 2*time.Minute) {
		t.Error("repeat delivery to the same destination must not be new")
	}
	if !c.Delivered(m, 6, 2*time.Minute) {
		t.Error("delivery to a second destination must be new")
	}
	r := c.Snapshot()
	if r.Delivered != 1 {
		t.Errorf("Delivered (unique messages) = %d, want 1", r.Delivered)
	}
	if !c.WasDelivered(m.Handle, 5) || !c.WasDelivered(m.Handle, 6) || c.WasDelivered(m.Handle, 7) {
		t.Error("WasDelivered wrong")
	}
	// Handles past every delivered one, and below it, read as undelivered.
	if c.WasDelivered(m.Handle+1, 5) || c.WasDelivered(m.Handle-1, 5) {
		t.Error("WasDelivered reports an undelivered handle")
	}
}

func TestPriorityMDR(t *testing.T) {
	c := NewCollector()
	hi := msg(t, "hi", message.PriorityHigh)
	lo1 := msg(t, "lo1", message.PriorityLow)
	lo2 := msg(t, "lo2", message.PriorityLow)
	c.MessageCreated(hi)
	c.MessageCreated(lo1)
	c.MessageCreated(lo2)
	c.Delivered(hi, 3, time.Minute)
	c.Delivered(lo1, 4, time.Minute)
	r := c.Snapshot()
	if got := r.PriorityMDR(message.PriorityHigh); got != 1 {
		t.Errorf("high MDR = %v, want 1", got)
	}
	if got := r.PriorityMDR(message.PriorityLow); got != 0.5 {
		t.Errorf("low MDR = %v, want 0.5", got)
	}
	if got := r.PriorityMDR(message.PriorityMedium); got != 0 {
		t.Errorf("medium MDR = %v, want 0 (none created)", got)
	}
}

func TestCounters(t *testing.T) {
	c := NewCollector()
	c.Transferred(true)
	c.Transferred(true)
	c.Transferred(false)
	c.TransferAborted()
	c.RefusedNoTokens()
	c.RefusedReputation()
	c.RefusedRadioOff()
	c.TagAdded(true)
	c.TagAdded(false)
	c.TagAdded(true)
	r := c.Snapshot()
	if r.Transfers != 3 || r.RelayTransfers != 2 {
		t.Errorf("transfers=%d relay=%d", r.Transfers, r.RelayTransfers)
	}
	if r.AbortedTransfers != 1 || r.RefusedNoTokens != 1 || r.RefusedReputation != 1 || r.RefusedRadioOff != 1 {
		t.Error("refusal counters wrong")
	}
	if r.TagsAdded != 3 || r.RelevantTags != 2 || r.IrrelevantTags != 1 {
		t.Error("tag counters wrong")
	}
}

func TestRatingSeries(t *testing.T) {
	c := NewCollector()
	c.SampleMaliciousRating(time.Minute, 2.5)
	c.SampleMaliciousRating(2*time.Minute, 1.5)
	r := c.Snapshot()
	if len(r.RatingSeries) != 2 || r.RatingSeries[1].MeanMaliciousRating != 1.5 {
		t.Errorf("series = %v", r.RatingSeries)
	}
	// Snapshot must copy: mutating the report must not affect the collector.
	r.RatingSeries[0].MeanMaliciousRating = 99
	r2 := c.Snapshot()
	if r2.RatingSeries[0].MeanMaliciousRating == 99 {
		t.Error("snapshot shares the series backing array")
	}
}

func TestSnapshotMapsAreCopies(t *testing.T) {
	c := NewCollector()
	m := msg(t, "a", message.PriorityHigh)
	c.MessageCreated(m)
	r := c.Snapshot()
	r.CreatedByPriority[message.PriorityHigh] = 99
	if c.Snapshot().CreatedByPriority[message.PriorityHigh] == 99 {
		t.Error("snapshot shares the priority map")
	}
}
