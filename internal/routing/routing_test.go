package routing

import (
	"testing"
	"time"

	"dtnsim/internal/buffer"
	"dtnsim/internal/ident"
	"dtnsim/internal/interest"
	"dtnsim/internal/message"
)

// fakeNode implements NodeView for router tests.
type fakeNode struct {
	id    ident.NodeID
	table *interest.Table
	buf   *buffer.Store
}

func (f *fakeNode) ID() ident.NodeID           { return f.id }
func (f *fakeNode) Interests() *interest.Table { return f.table }
func (f *fakeNode) Buffer() *buffer.Store      { return f.buf }

var _ NodeView = (*fakeNode)(nil)

type harness struct {
	in   *interest.Interner
	next int
}

func newHarness() *harness { return &harness{in: interest.NewInterner()} }

func (h *harness) node(t *testing.T, id int, directs ...string) *fakeNode {
	t.Helper()
	tab, err := interest.NewTable(interest.DefaultParams(), h.in)
	if err != nil {
		t.Fatal(err)
	}
	for _, kw := range directs {
		tab.DeclareDirect(kw, 0)
	}
	buf, err := buffer.New(1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &fakeNode{id: ident.NodeID(id), table: tab, buf: buf}
}

func (h *harness) msg(t *testing.T, src *fakeNode, prio message.Priority, quality float64, created time.Duration, kws ...string) *message.Message {
	t.Helper()
	h.next++
	m, err := message.New(ident.NewMessageID(src.id, h.next), message.Handle(h.next), src.id, ident.RoleOperator, created, 100, prio, quality)
	if err != nil {
		t.Fatal(err)
	}
	m.TrueKeywords = kws
	for _, kw := range kws {
		m.Annotate(kw, src.id, created)
	}
	if err := src.buf.Add(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestClassifyPeerDestination(t *testing.T) {
	h := newHarness()
	u := h.node(t, 1, "news")
	v := h.node(t, 2, "sports")
	m := h.msg(t, u, message.PriorityHigh, 0.5, 0, "sports")
	if role := ClassifyPeer(m, u, v); role != RoleDestination {
		t.Errorf("role = %v, want destination (direct interest)", role)
	}
}

func TestClassifyPeerRelayRequiresStrictlyHigherSum(t *testing.T) {
	h := newHarness()
	u := h.node(t, 1)
	v := h.node(t, 2)
	// v holds a transient interest stronger than u's.
	v.table.Acquire("x", 9, 0)
	v.table.SetWeight("x", 0.4)
	m := h.msg(t, u, message.PriorityHigh, 0.5, 0, "x")
	if role := ClassifyPeer(m, u, v); role != RoleRelay {
		t.Errorf("role = %v, want relay (S_v > S_u)", role)
	}
	// Equal sums: not a relay.
	u.table.Acquire("x", 9, 0)
	u.table.SetWeight("x", 0.4)
	if role := ClassifyPeer(m, u, v); role != RoleNone {
		t.Errorf("role = %v, want none (S_v == S_u)", role)
	}
}

func TestClassifyPeerTransientInterestIsNotDestination(t *testing.T) {
	h := newHarness()
	u := h.node(t, 1)
	v := h.node(t, 2)
	v.table.Acquire("x", 9, 0)
	v.table.SetWeight("x", 0.9)
	m := h.msg(t, u, message.PriorityHigh, 0.5, 0, "x")
	if role := ClassifyPeer(m, u, v); role == RoleDestination {
		t.Error("transient interest must not make a destination")
	}
}

func TestChitChatOffers(t *testing.T) {
	h := newHarness()
	u := h.node(t, 1)
	v := h.node(t, 2, "wanted")
	h.msg(t, u, message.PriorityHigh, 0.5, 0, "wanted")
	h.msg(t, u, message.PriorityHigh, 0.5, 0, "unrelated")
	offers := NewChitChat().SelectOffers(u, v)
	if len(offers) != 1 {
		t.Fatalf("offers = %d, want 1", len(offers))
	}
	if offers[0].Role != RoleDestination {
		t.Errorf("role = %v", offers[0].Role)
	}
}

func TestChitChatSkipsAlreadyHeld(t *testing.T) {
	h := newHarness()
	u := h.node(t, 1)
	v := h.node(t, 2, "wanted")
	m := h.msg(t, u, message.PriorityHigh, 0.5, 0, "wanted")
	if err := v.buf.Add(m.CopyFor(v.id)); err != nil {
		t.Fatal(err)
	}
	if offers := NewChitChat().SelectOffers(u, v); len(offers) != 0 {
		t.Errorf("offered a message the peer already holds: %v", offers)
	}
}

// TestChitChatSkipsPastCustodians builds, through buffer operations the
// engine performs, a copy whose path runs through v after v has dropped its
// own copy: the message reached u via v, then v removed it. v is a past
// custodian of u's copy, so the message must not go back to it.
func TestChitChatSkipsPastCustodians(t *testing.T) {
	h := newHarness()
	src := h.node(t, 3)
	u := h.node(t, 1)
	v := h.node(t, 2, "wanted")
	m := h.msg(t, src, message.PriorityHigh, 0.5, 0, "wanted")
	atV := m.CopyFor(v.id)
	if err := v.buf.Add(atV); err != nil {
		t.Fatal(err)
	}
	if err := u.buf.Add(atV.CopyFor(u.id)); err != nil {
		t.Fatal(err)
	}
	v.buf.Remove(m.Handle)
	if offers := NewChitChat().SelectOffers(u, v); len(offers) != 0 {
		t.Errorf("offered a message back to a past custodian: %v", offers)
	}
}

// TestChitChatReoffersDroppedMessageFromOtherLineage is the case the
// path-scan fallback exists for: v held a copy and dropped it, but u's copy
// came straight from the source and never passed through v. v is not on
// that copy's path, so the message is offered again.
func TestChitChatReoffersDroppedMessageFromOtherLineage(t *testing.T) {
	h := newHarness()
	src := h.node(t, 3)
	u := h.node(t, 1)
	v := h.node(t, 2, "wanted")
	m := h.msg(t, src, message.PriorityHigh, 0.5, 0, "wanted")
	if err := v.buf.Add(m.CopyFor(v.id)); err != nil {
		t.Fatal(err)
	}
	if err := u.buf.Add(m.CopyFor(u.id)); err != nil {
		t.Fatal(err)
	}
	v.buf.Remove(m.Handle)
	offers := NewChitChat().SelectOffers(u, v)
	if len(offers) != 1 || offers[0].Msg.Handle != m.Handle || offers[0].Role != RoleDestination {
		t.Errorf("offers = %v, want the dropped message offered to its destination", offers)
	}
}

func TestEpidemicOffersEverything(t *testing.T) {
	h := newHarness()
	u := h.node(t, 1)
	v := h.node(t, 2)
	h.msg(t, u, message.PriorityHigh, 0.5, 0, "a")
	h.msg(t, u, message.PriorityLow, 0.5, 0, "b")
	offers := NewEpidemic().SelectOffers(u, v)
	if len(offers) != 2 {
		t.Fatalf("epidemic offers = %d, want 2", len(offers))
	}
	for _, o := range offers {
		if o.Role != RoleRelay {
			t.Errorf("uninterested peer must be a relay, got %v", o.Role)
		}
	}
}

func TestDirectOnlyOffersToDestinations(t *testing.T) {
	h := newHarness()
	u := h.node(t, 1)
	relay := h.node(t, 2)
	relay.table.Acquire("a", 9, 0)
	relay.table.SetWeight("a", 0.9)
	dest := h.node(t, 3, "a")
	h.msg(t, u, message.PriorityHigh, 0.5, 0, "a")
	if offers := NewDirect().SelectOffers(u, relay); len(offers) != 0 {
		t.Error("direct routing offered to a relay")
	}
	if offers := NewDirect().SelectOffers(u, dest); len(offers) != 1 {
		t.Error("direct routing missed the destination")
	}
}

func TestSprayAndWaitPhases(t *testing.T) {
	spray, err := NewSprayAndWait(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSprayAndWait(0); err == nil {
		t.Error("zero budget must fail")
	}
	h := newHarness()
	u := h.node(t, 1)
	relay := h.node(t, 2)
	dest := h.node(t, 3, "a")
	m := h.msg(t, u, message.PriorityHigh, 0.5, 0, "a")
	m.CopiesLeft = 4

	if offers := spray.SelectOffers(u, relay); len(offers) != 1 || offers[0].Role != RoleRelay {
		t.Errorf("spray phase offers = %v", offers)
	}
	// Wait phase: single copy left → relay gets nothing, destination still does.
	m.CopiesLeft = 1
	if offers := spray.SelectOffers(u, relay); len(offers) != 0 {
		t.Error("wait phase offered to a relay")
	}
	if offers := spray.SelectOffers(u, dest); len(offers) != 1 || offers[0].Role != RoleDestination {
		t.Error("wait phase must still deliver to destinations")
	}
}

func TestSplitCopies(t *testing.T) {
	tests := []struct{ c, keep, give int }{
		{1, 1, 0},
		{2, 1, 1},
		{3, 1, 2},
		{8, 4, 4},
		{9, 4, 5},
	}
	for _, tt := range tests {
		keep, give := SplitCopies(tt.c)
		if keep != tt.keep || give != tt.give {
			t.Errorf("SplitCopies(%d) = (%d, %d), want (%d, %d)", tt.c, keep, give, tt.keep, tt.give)
		}
		if tt.c > 1 && keep+give != tt.c {
			t.Errorf("SplitCopies(%d) loses copies", tt.c)
		}
	}
}

func TestOfferOrderingPriorityFirst(t *testing.T) {
	h := newHarness()
	u := h.node(t, 1)
	v := h.node(t, 2, "a", "b", "c", "d")
	low := h.msg(t, u, message.PriorityLow, 0.9, 0, "a")
	high := h.msg(t, u, message.PriorityHigh, 0.3, time.Second, "b")
	med := h.msg(t, u, message.PriorityMedium, 0.5, 0, "c")
	offers := NewChitChat().SelectOffers(u, v)
	if len(offers) != 3 {
		t.Fatalf("offers = %d", len(offers))
	}
	if offers[0].Msg.ID != high.ID || offers[1].Msg.ID != med.ID || offers[2].Msg.ID != low.ID {
		t.Errorf("order = %v, %v, %v; want high, med, low", offers[0].Msg.ID, offers[1].Msg.ID, offers[2].Msg.ID)
	}
}

func TestOfferOrderingDestinationsBeforeRelays(t *testing.T) {
	h := newHarness()
	u := h.node(t, 1)
	v := h.node(t, 2, "wanted")
	v.table.Acquire("other", 9, 0)
	v.table.SetWeight("other", 0.5)
	relayMsg := h.msg(t, u, message.PriorityHigh, 0.9, 0, "other")
	destMsg := h.msg(t, u, message.PriorityLow, 0.1, time.Second, "wanted")
	offers := NewChitChat().SelectOffers(u, v)
	if len(offers) != 2 {
		t.Fatalf("offers = %d", len(offers))
	}
	if offers[0].Msg.ID != destMsg.ID || offers[1].Msg.ID != relayMsg.ID {
		t.Error("destination offers must precede relay offers")
	}
}

func TestKeywordIDsCaching(t *testing.T) {
	h := newHarness()
	u := h.node(t, 1)
	m := h.msg(t, u, message.PriorityHigh, 0.5, 0, "a", "b")
	ids := KeywordIDs(m, h.in)
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
	// Cached: same backing array on second call.
	again := KeywordIDs(m, h.in)
	if &ids[0] != &again[0] {
		t.Error("KeywordIDs did not cache")
	}
	// Annotation invalidates.
	m.Annotate("c", u.id, 0)
	refreshed := KeywordIDs(m, h.in)
	if len(refreshed) != 3 {
		t.Errorf("refreshed ids = %v", refreshed)
	}
}

func TestRoleStrings(t *testing.T) {
	if RoleNone.String() != "none" || RoleRelay.String() != "relay" || RoleDestination.String() != "destination" {
		t.Error("role names wrong")
	}
	if PeerRole(99).String() != "unknown" {
		t.Error("unknown role must render as unknown")
	}
}
