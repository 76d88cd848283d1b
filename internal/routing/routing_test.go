package routing

import (
	"fmt"
	"math"
	"testing"
	"time"

	"dtnsim/internal/buffer"
	"dtnsim/internal/ident"
	"dtnsim/internal/interest"
	"dtnsim/internal/message"
	"dtnsim/internal/sim"
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
	tab, err := interest.NewTable(interest.DefaultParams(), h.in, &sim.Clock{})
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

// TestClassifyPeerCeilingIsExact checks that the sender-sum ceiling never
// changes a verdict. Over randomized tables whose weights crowd MaxWeight,
// ClassifyPeer must return what the plain rule returns: destination on a
// direct interest, else relay iff S_v > S_u. The draws include sender sums
// that tie the ceiling k = len(ids) and sums one ulp below it against a
// receiver at k, so a ceiling one ulp lower would fail here.
func TestClassifyPeerCeilingIsExact(t *testing.T) {
	below := math.Nextafter(interest.MaxWeight, 0)
	draws := []float64{0, 0.5, math.Nextafter(below, 0), below, interest.MaxWeight, interest.MaxWeight}
	rng := sim.NewRNG(11)
	h := newHarness()
	var atCeiling, belowCeiling int
	for trial := 0; trial < 2000; trial++ {
		u, v := h.node(t, 1), h.node(t, 2)
		k := 1 + rng.Intn(3)
		kws := make([]string, k)
		for i := range kws {
			kws[i] = fmt.Sprintf("kw%d", i)
			for _, n := range []*fakeNode{u, v} {
				if rng.Intn(5) == 0 {
					continue
				}
				if rng.Intn(20) == 0 {
					n.table.DeclareDirect(kws[i], 0)
				} else {
					n.table.Acquire(kws[i], 9, 0)
				}
				w := draws[rng.Intn(len(draws))]
				if rng.Intn(4) == 0 {
					w = rng.Float64()
				}
				n.table.SetWeight(kws[i], w)
			}
		}
		m := h.msg(t, u, message.PriorityHigh, 0.5, 0, kws...)
		ids := KeywordIDs(m, h.in)
		want := RoleNone
		su, sv := u.table.SumWeightsIDs(ids), v.table.SumWeightsIDs(ids)
		switch {
		case v.table.HasDirectAnyID(ids):
			want = RoleDestination
		case sv > su:
			want = RoleRelay
		}
		if got := ClassifyPeer(m, u, v); got != want {
			t.Fatalf("trial %d: S_u %v S_v %v over %d keywords: role %v, want %v", trial, su, sv, k, got, want)
		}
		if want != RoleDestination {
			switch ceiling := float64(k); {
			case su == ceiling:
				atCeiling++
			case su == math.Nextafter(ceiling, 0) && sv == ceiling:
				belowCeiling++
			}
		}
	}
	if atCeiling == 0 || belowCeiling == 0 {
		t.Fatalf("draws reached the ceiling %d times and sat one ulp under a receiver at it %d times; both must occur",
			atCeiling, belowCeiling)
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
