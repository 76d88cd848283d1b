package message

import (
	"testing"
	"time"

	"dtnsim/internal/ident"
)

func newTestMessage(t *testing.T) *Message {
	t.Helper()
	m, err := New(ident.NewMessageID(1, 1), 7, ident.NodeID(1), ident.RoleOperator, 0, 1<<20, PriorityHigh, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		prio    Priority
		quality float64
		size    int64
	}{
		{"bad priority", Priority(0), 0.5, 100},
		{"bad priority high", Priority(4), 0.5, 100},
		{"zero quality", PriorityHigh, 0, 100},
		{"quality above one", PriorityHigh, 1.5, 100},
		{"zero size", PriorityHigh, 0.5, 0},
	}
	for _, tt := range tests {
		if _, err := New("m", 0, 1, ident.RoleOperator, 0, tt.size, tt.prio, tt.quality); err == nil {
			t.Errorf("%s: New should fail", tt.name)
		}
	}
}

func TestPriorityNames(t *testing.T) {
	if PriorityHigh.String() != "high" || PriorityMedium.String() != "medium" || PriorityLow.String() != "low" {
		t.Error("priority names wrong")
	}
	if !PriorityHigh.Valid() || Priority(0).Valid() || Priority(4).Valid() {
		t.Error("priority validity wrong")
	}
}

func TestAnnotateAndKeywords(t *testing.T) {
	m := newTestMessage(t)
	if !m.Annotate("tree", 1, 0) {
		t.Fatal("first annotate failed")
	}
	if m.Annotate("tree", 2, 0) {
		t.Error("duplicate keyword must be rejected")
	}
	if m.Annotate("", 1, 0) {
		t.Error("empty keyword must be rejected")
	}
	m.Annotate("garden", 1, 0)
	kws := m.Keywords()
	if len(kws) != 2 || kws[0] != "tree" || kws[1] != "garden" {
		t.Errorf("Keywords = %v", kws)
	}
	if !m.HasKeyword("tree") || m.HasKeyword("car") {
		t.Error("HasKeyword wrong")
	}
}

func TestKeywordsCacheInvalidation(t *testing.T) {
	m := newTestMessage(t)
	m.Annotate("a", 1, 0)
	first := m.Keywords()
	if len(first) != 1 {
		t.Fatalf("keywords = %v", first)
	}
	m.Annotate("b", 1, 0)
	second := m.Keywords()
	if len(second) != 2 {
		t.Errorf("cache not invalidated: %v", second)
	}
}

func TestRelevance(t *testing.T) {
	m := newTestMessage(t)
	m.TrueKeywords = []string{"tree", "garden"}
	if !m.Relevant("tree") {
		t.Error("true keyword must be relevant")
	}
	if m.Relevant("parking lot") {
		t.Error("forged keyword must be irrelevant")
	}
}

func TestEnrichmentProvenance(t *testing.T) {
	m := newTestMessage(t)
	m.Annotate("tree", m.Source, 0) // source tag, hop 0
	clone := m.CopyFor(ident.NodeID(2))
	clone.Annotate("car", ident.NodeID(2), time.Minute) // relay tag, hop 1
	clone2 := clone.CopyFor(ident.NodeID(3))
	clone2.Annotate("bike", ident.NodeID(3), 2*time.Minute)

	if tags := clone2.TagsAddedBy(ident.NodeID(2)); len(tags) != 1 || tags[0].Keyword != "car" {
		t.Errorf("TagsAddedBy(2) = %v", tags)
	}
	// Source tags at hop 0 are not enrichment.
	if tags := clone2.TagsAddedBy(m.Source); len(tags) != 0 {
		t.Errorf("source tags misattributed as enrichment: %v", tags)
	}
	enrichers := clone2.Enrichers()
	if len(enrichers) != 2 || enrichers[0] != ident.NodeID(2) || enrichers[1] != ident.NodeID(3) {
		t.Errorf("Enrichers = %v", enrichers)
	}
}

func TestCopyForIndependence(t *testing.T) {
	m := newTestMessage(t)
	m.TrueKeywords = []string{"tree"}
	m.Annotate("tree", m.Source, 0)
	m.Keywords() // memoise before copying: the clone shares the cache
	clone := m.CopyFor(ident.NodeID(2))

	if clone.ID != m.ID || clone.Handle != m.Handle {
		t.Errorf("clone is %s/%d, want the original's %s/%d", clone.ID, clone.Handle, m.ID, m.Handle)
	}
	if clone.Holder() != ident.NodeID(2) {
		t.Errorf("clone holder = %v", clone.Holder())
	}
	if m.Holder() != m.Source {
		t.Errorf("original holder changed: %v", m.Holder())
	}
	clone.Annotate("car", 2, 0)
	if m.HasKeyword("car") {
		t.Error("clone annotation leaked into original")
	}
	if kws := m.Keywords(); len(kws) != 1 || kws[0] != "tree" {
		t.Errorf("original keywords = %v after the clone was tagged, want [tree]", kws)
	}
	if kws := clone.Keywords(); len(kws) != 2 || kws[1] != "car" {
		t.Errorf("clone keywords = %v, want [tree car]", kws)
	}
	clone.AttachRating(PathRating{Rater: 2, Subject: 1, Rating: 3})
	if len(m.PathRatings) != 0 {
		t.Error("clone rating leaked into original")
	}
	if m.HopCount() != 0 || clone.HopCount() != 1 {
		t.Errorf("hop counts = %d, %d; want 0, 1", m.HopCount(), clone.HopCount())
	}
}

func TestRatingValues(t *testing.T) {
	m := newTestMessage(t)
	if m.RatingValues() != nil {
		t.Error("no ratings should yield nil")
	}
	m.AttachRating(PathRating{Rater: 2, Subject: 1, Rating: 3.5})
	m.AttachRating(PathRating{Rater: 3, Subject: 1, Rating: 4.5})
	vals := m.RatingValues()
	if len(vals) != 2 || vals[0] != 3.5 || vals[1] != 4.5 {
		t.Errorf("RatingValues = %v", vals)
	}
}

func TestExpiry(t *testing.T) {
	m := newTestMessage(t)
	if m.Expired(time.Hour * 1000) {
		t.Error("zero TTL must never expire")
	}
	m.TTL = time.Hour
	if m.Expired(30 * time.Minute) {
		t.Error("expired before TTL")
	}
	if !m.Expired(2 * time.Hour) {
		t.Error("not expired after TTL")
	}
}

func TestHolderEmptyPath(t *testing.T) {
	m := &Message{}
	if m.Holder() != ident.Nobody {
		t.Error("empty path holder must be Nobody")
	}
	if m.HopCount() != 0 {
		t.Error("empty path hop count must be 0")
	}
}

func TestStringIncludesEssentials(t *testing.T) {
	m := newTestMessage(t)
	s := m.String()
	if s == "" {
		t.Error("String must not be empty")
	}
}
