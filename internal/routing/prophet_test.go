package routing

import (
	"testing"
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
)

// predictability reads P(from, to) from p's tables, 0 when from has none.
func predictability(p *Prophet, from, to ident.NodeID) float64 {
	t, ok := p.tables[from]
	if !ok {
		return 0
	}
	return t.p[to]
}

// TestProphetDefaultsValid pins NewProphet's constants inside PRoPHET's
// valid ranges.
func TestProphetDefaultsValid(t *testing.T) {
	p := NewProphet()
	if p.PInit <= 0 || p.PInit > 1 {
		t.Errorf("P_init %v outside (0, 1]", p.PInit)
	}
	if p.Beta < 0 || p.Beta > 1 {
		t.Errorf("beta %v outside [0, 1]", p.Beta)
	}
	if p.Gamma <= 0 || p.Gamma >= 1 {
		t.Errorf("gamma %v outside (0, 1)", p.Gamma)
	}
	if p.AgingUnit <= 0 {
		t.Errorf("aging unit %v not positive", p.AgingUnit)
	}
}

func TestProphetEncounterRaisesPredictability(t *testing.T) {
	h := newHarness()
	a := h.node(t, 1)
	b := h.node(t, 2)
	p := NewProphet()
	if predictability(p, a.ID(), b.ID()) != 0 {
		t.Fatal("fresh tables must be zero")
	}
	p.OnContact(a, b, time.Minute)
	got := predictability(p, a.ID(), b.ID())
	if got != p.PInit {
		t.Errorf("P(a,b) after first encounter = %v, want P_init %v", got, p.PInit)
	}
	// Repeated encounters approach 1 monotonically.
	prev := got
	for i := 0; i < 10; i++ {
		p.OnContact(a, b, time.Duration(i+2)*time.Minute)
		cur := predictability(p, a.ID(), b.ID())
		if cur < prev || cur > 1 {
			t.Fatalf("predictability not monotone within [0,1]: %v then %v", prev, cur)
		}
		prev = cur
	}
}

func TestProphetTransitivity(t *testing.T) {
	h := newHarness()
	a := h.node(t, 1)
	b := h.node(t, 2)
	c := h.node(t, 3)
	p := NewProphet()
	p.OnContact(b, c, time.Minute) // b knows c
	p.OnContact(a, b, 2*time.Minute)
	if got := predictability(p, a.ID(), c.ID()); got <= 0 {
		t.Errorf("transitive P(a,c) = %v, want > 0", got)
	}
	if direct := predictability(p, a.ID(), b.ID()); predictability(p, a.ID(), c.ID()) >= direct {
		t.Error("transitive predictability must stay below direct")
	}
}

func TestProphetAging(t *testing.T) {
	h := newHarness()
	a := h.node(t, 1)
	b := h.node(t, 2)
	p := NewProphet()
	p.OnContact(a, b, time.Minute)
	before := predictability(p, a.ID(), b.ID())
	// A later contact with someone else triggers aging of a's table.
	c := h.node(t, 3)
	p.OnContact(a, c, time.Hour)
	after := predictability(p, a.ID(), b.ID())
	if after >= before {
		t.Errorf("P(a,b) did not age: %v → %v", before, after)
	}
}

func TestProphetSelectOffers(t *testing.T) {
	h := newHarness()
	src := h.node(t, 1)
	relay := h.node(t, 2)
	dest := h.node(t, 3, "wanted")
	p := NewProphet()
	// relay has met dest; src has not. PRoPHET must hand over.
	p.OnContact(relay, dest, time.Minute)
	p.OnContact(src, relay, 2*time.Minute)
	m := h.msg(t, src, message.PriorityHigh, 0.5, 0, "wanted")
	offers := p.SelectOffers(src, relay)
	if len(offers) != 1 || offers[0].Role != RoleRelay {
		t.Fatalf("offers = %v, want one relay offer", offers)
	}
	// Direct-interest destinations are always offered.
	offers = p.SelectOffers(src, dest)
	if len(offers) != 1 || offers[0].Role != RoleDestination {
		t.Fatalf("offers to dest = %v", offers)
	}
	// The reverse direction (relay knows dest better) must not offer.
	m2 := h.msg(t, relay, message.PriorityHigh, 0.5, 0, "wanted")
	_ = m2
	if offers := p.SelectOffers(relay, src); len(offers) != 0 {
		t.Errorf("relay offered %v to a worse carrier", offers)
	}
	_ = m
}

func TestTwoHopOnlySourceSprays(t *testing.T) {
	h := newHarness()
	src := h.node(t, 1)
	relay := h.node(t, 2)
	relay2 := h.node(t, 3)
	dest := h.node(t, 4, "wanted")
	r := NewTwoHop()
	m := h.msg(t, src, message.PriorityHigh, 0.5, 0, "wanted")
	// Source replicates to anyone.
	offers := r.SelectOffers(src, relay)
	if len(offers) != 1 || offers[0].Role != RoleRelay {
		t.Fatalf("source offers = %v", offers)
	}
	// Simulate the handover; the relay must not replicate onward.
	clone := m.CopyFor(relay.ID())
	if err := relay.buf.Add(clone); err != nil {
		t.Fatal(err)
	}
	if offers := r.SelectOffers(relay, relay2); len(offers) != 0 {
		t.Errorf("relay replicated onward: %v", offers)
	}
	// But it delivers to a destination.
	if offers := r.SelectOffers(relay, dest); len(offers) != 1 || offers[0].Role != RoleDestination {
		t.Errorf("relay delivery offers = %v", offers)
	}
}
