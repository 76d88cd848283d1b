package message

import (
	"math"
	"math/rand"
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
		{"NaN quality", PriorityHigh, math.NaN(), 100},
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
	// A relay's later tags do not name it again.
	clone2.Annotate("lake", ident.NodeID(2), 3*time.Minute)
	clone2.Annotate("road", ident.NodeID(3), 3*time.Minute)
	var enrichers []ident.NodeID
	for i := range clone2.Annotations {
		if id, first := clone2.FirstEnrichment(i); first {
			enrichers = append(enrichers, id)
		}
	}
	if len(enrichers) != 2 || enrichers[0] != ident.NodeID(2) || enrichers[1] != ident.NodeID(3) {
		t.Errorf("enrichers in first-tag order = %v, want [2 3]", enrichers)
	}
}

// TestRelevantTagsMatchAnnotations checks the kept relevant-tag count
// against a count over the annotations after every Annotate and CopyFor,
// on random lineages where source tags (hop 0), relay tags, relevant and
// irrelevant keywords, and duplicates all occur, and where an original
// keeps being tagged after it was copied.
func TestRelevantTagsMatchAnnotations(t *testing.T) {
	words := []string{"tree", "garden", "car", "bike", "lake", "road"}
	count := func(m *Message) int {
		n := 0
		for _, a := range m.Annotations {
			if a.Hop > 0 && m.Relevant(a.Keyword) {
				n++
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(3))
	var sourceRelevant, relayRelevant int
	for trial := 0; trial < 50; trial++ {
		m := newTestMessage(t)
		m.TrueKeywords = words[:3]
		copies := []*Message{m}
		for op := 0; op < 30; op++ {
			c := copies[rng.Intn(len(copies))]
			if rng.Intn(3) == 0 {
				c = c.CopyFor(ident.NodeID(10 + op))
				copies = append(copies, c)
			} else {
				kw := words[rng.Intn(len(words))]
				if c.Annotate(kw, c.Path[len(c.Path)-1], time.Duration(op)*time.Second) && c.Relevant(kw) {
					if c.HopCount() == 0 {
						sourceRelevant++
					} else {
						relayRelevant++
					}
				}
			}
			if got, want := c.RelevantTags(), count(c); got != want {
				t.Fatalf("trial %d op %d: RelevantTags = %d, annotations hold %d (%v at hop %d)",
					trial, op, got, want, c.Annotations, c.HopCount())
			}
		}
		for i, c := range copies {
			if got, want := c.RelevantTags(), count(c); got != want {
				t.Fatalf("trial %d copy %d: RelevantTags = %d, annotations hold %d", trial, i, got, want)
			}
		}
	}
	if sourceRelevant == 0 || relayRelevant == 0 {
		t.Fatalf("relevant tags added at the source %d times and by relays %d times; both must occur",
			sourceRelevant, relayRelevant)
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
	if holder := clone.Path[len(clone.Path)-1]; holder != ident.NodeID(2) {
		t.Errorf("clone holder = %v", holder)
	}
	if len(m.Path) != 1 || m.Path[0] != m.Source {
		t.Errorf("original path changed: %v", m.Path)
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

func TestHolderEmptyPath(t *testing.T) {
	m := &Message{}
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
