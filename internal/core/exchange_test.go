package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"dtnsim/internal/behavior"
	"dtnsim/internal/ident"
	"dtnsim/internal/message"
	"dtnsim/internal/routing"
	"dtnsim/internal/sim"
	"dtnsim/internal/world"
)

// refSortOffers is the sort.SliceStable formulation of sortOffers, which
// the hand-rolled insertion sort must reproduce exactly, stability
// included.
func refSortOffers(offers []routing.Offer, byPriority bool) {
	sort.SliceStable(offers, func(i, j int) bool {
		a, b := offers[i].Msg, offers[j].Msg
		if offers[i].Role != offers[j].Role {
			return offers[i].Role > offers[j].Role
		}
		if byPriority {
			if a.Priority != b.Priority {
				return a.Priority < b.Priority
			}
			if a.Quality != b.Quality {
				return a.Quality > b.Quality
			}
		}
		if a.CreatedAt != b.CreatedAt {
			return a.CreatedAt < b.CreatedAt
		}
		return a.ID < b.ID
	})
}

// randomOffers builds an offer list dense in duplicate keys so stability is
// actually exercised: few distinct priorities, qualities, creation times
// and IDs, duplicate keys distinguishable only by *Message pointer
// identity.
func randomOffers(rng *sim.RNG, n int) []routing.Offer {
	offers := make([]routing.Offer, n)
	for i := range offers {
		role := routing.RoleRelay
		if rng.Coin(0.5) {
			role = routing.RoleDestination
		}
		offers[i] = routing.Offer{
			Role: role,
			Msg: &message.Message{
				ID:        ident.MessageID(fmt.Sprintf("m%d", rng.Intn(4))),
				Priority:  message.Priority(1 + rng.Intn(3)),
				Quality:   float64(1+rng.Intn(2)) / 2,
				CreatedAt: time.Duration(rng.Intn(3)) * time.Second,
			},
		}
	}
	return offers
}

// TestSortOffersFIFOMatchesStableSort pins the hand-rolled offer sort
// against the sort.SliceStable reference over randomized lists, in both the
// baseline's FIFO order and the incentive scheme's priority order:
// identical order, including pointer-identity order among fully equal keys.
// The lists run up to 48 offers, past the 30–40 a late-window call makes,
// and every sort reuses the key scratch the previous one grew.
func TestSortOffersFIFOMatchesStableSort(t *testing.T) {
	rng := sim.NewRNG(5)
	var keys []offerKey
	for _, byPriority := range []bool{false, true} {
		for trial := 0; trial < 400; trial++ {
			offers := randomOffers(rng, rng.Intn(48))
			want := append([]routing.Offer(nil), offers...)
			refSortOffers(want, byPriority)
			keys = sortOffers(offers, byPriority, keys)
			for i := range want {
				if offers[i] != want[i] {
					t.Fatalf("byPriority=%v trial %d: offer %d = %+v, want %+v", byPriority, trial, i, offers[i], want[i])
				}
			}
		}
	}
}

// orderingMsg is a buffered message for the offer-ordering tests.
func orderingMsg(t *testing.T, seq int, prio message.Priority, quality float64, created time.Duration) *message.Message {
	t.Helper()
	m, err := message.New(ident.NewMessageID(1, seq), message.Handle(seq), 1, ident.RoleCivilian, created, 1<<20, prio, quality)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// offerIDs lists the offered message IDs in order.
func offerIDs(offers []routing.Offer) []ident.MessageID {
	ids := make([]ident.MessageID, len(offers))
	for i, o := range offers {
		ids[i] = o.Msg.ID
	}
	return ids
}

// TestOfferOrderingPriorityFirst: under the incentive scheme high-priority
// offers go first whatever their quality and age; the baseline sends the
// same offers in creation order.
func TestOfferOrderingPriorityFirst(t *testing.T) {
	low := orderingMsg(t, 1, message.PriorityLow, 0.9, 0)
	high := orderingMsg(t, 2, message.PriorityHigh, 0.3, time.Second)
	med := orderingMsg(t, 3, message.PriorityMedium, 0.5, 0)
	buffered := func() []routing.Offer {
		return []routing.Offer{{Msg: low, Role: routing.RoleRelay}, {Msg: high, Role: routing.RoleRelay}, {Msg: med, Role: routing.RoleRelay}}
	}
	offers := buffered()
	sortOffers(offers, true, nil)
	if got := offerIDs(offers); got[0] != high.ID || got[1] != med.ID || got[2] != low.ID {
		t.Errorf("priority order = %v; want high, med, low", got)
	}
	offers = buffered()
	sortOffers(offers, false, nil)
	if got := offerIDs(offers); got[0] != low.ID || got[1] != med.ID || got[2] != high.ID {
		t.Errorf("FIFO order = %v; want low, med (created at 0, by ID), high", got)
	}
}

// TestOfferOrderingDestinationsBeforeRelays: a destination offer precedes a
// relay offer in both orders, even when the relayed message is older and
// of higher priority.
func TestOfferOrderingDestinationsBeforeRelays(t *testing.T) {
	relayMsg := orderingMsg(t, 1, message.PriorityHigh, 0.9, 0)
	destMsg := orderingMsg(t, 2, message.PriorityLow, 0.1, time.Second)
	for _, byPriority := range []bool{false, true} {
		offers := []routing.Offer{{Msg: relayMsg, Role: routing.RoleRelay}, {Msg: destMsg, Role: routing.RoleDestination}}
		sortOffers(offers, byPriority, nil)
		if offers[0].Msg != destMsg || offers[1].Msg != relayMsg {
			t.Errorf("byPriority=%v: order = %v, want the destination offer first", byPriority, offerIDs(offers))
		}
	}
}

// TestExchangeScratchAllocFree asserts the offer sort stays
// allocation-free in steady state: no closure and no slice-header escape.
// So does a warmed routing call over an open contact, router walk,
// negotiation and the sort of the accepted transfers included, when v
// refuses some offers from the award floors its memo cached and accepts
// others.
func TestExchangeScratchAllocFree(t *testing.T) {
	rng := sim.NewRNG(9)
	offers := randomOffers(rng, 16)
	keys := sortOffers(offers, false, nil) // grow the scratch once
	for _, byPriority := range []bool{false, true} {
		if avg := testing.AllocsPerRun(100, func() {
			keys = sortOffers(offers, byPriority, keys)
		}); avg != 0 {
			t.Errorf("sortOffers(byPriority=%v) allocates %.1f objects per round, want 0", byPriority, avg)
		}
	}

	// Node 1 is a destination for the "kw-dest" copies, which its
	// 0.001-token balance cannot pay for, and a free relay for the rest
	// under Epidemic.
	cfg, specs := arenaConfig(t, behavior.CooperativeProfile())
	cfg.Router = routing.NewEpidemic()
	cfg.Incentive.InitialTokens = 0.001
	specs[1].Interests = []string{"kw-dest"}
	eng, err := NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	u, v := eng.nodes[0], eng.nodes[1]
	now := eng.runner.Clock().Now()
	for i := 0; i < 8; i++ {
		tags := []string{"kw-relay"}
		if i%2 == 0 {
			tags = []string{"kw-dest"}
		}
		if _, err := eng.mint(u, now, int64(1+i)<<18, message.Priority(1+i%3), float64(1+i)/8, tags, tags); err != nil {
			t.Fatal(err)
		}
	}
	var cached int
	eng.floorAudit = func(*Node, *Node, *message.Message, float64) { cached++ }
	c := eng.contactUp(world.Pair{Lo: 0, Hi: 1}, now)
	var queued int
	route := func() {
		eng.routeDirection(c, u, v)
		queued = len(c.pending())
		for _, tr := range c.pending() {
			eng.releaseTransfer(tr)
		}
		c.resetQueue()
	}
	route()
	refused := eng.ctrRefusedTokens.Value()
	if avg := testing.AllocsPerRun(100, route); avg != 0 {
		t.Errorf("a warm routeDirection allocates %.1f objects per call, want 0", avg)
	}
	if queued != 4 || eng.ctrRefusedTokens.Value() == refused || cached == 0 {
		t.Fatalf("%d transfers queued per call, %d refusals, %d from a cached floor: want 4 accepted relays and cached refusals",
			queued, eng.ctrRefusedTokens.Value()-refused, cached)
	}
}

// unionRouter offers what two routers offer, walking the sender's memo
// twice in one call.
type unionRouter struct{ a, b routing.Router }

func (r unionRouter) Name() string { return "union" }

func (r unionRouter) SelectOffers(u, v routing.NodeView) []routing.Offer {
	return append(r.a.SelectOffers(u, v), r.b.SelectOffers(u, v)...)
}

// TestOfferSliceLentOncePerCall: a router that walks a contact direction
// twice in one routing call gets the engine's offer slice once, so the
// second walk's offers do not overwrite the first's.
func TestOfferSliceLentOncePerCall(t *testing.T) {
	cfg, specs := arenaConfig(t, behavior.CooperativeProfile())
	cfg.Router = unionRouter{routing.NewDirect(), routing.NewEpidemic()}
	specs[1].Interests = []string{"kw-dest"}
	eng, err := NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	u, v := eng.nodes[0], eng.nodes[1]
	now := eng.runner.Clock().Now()
	for i := 0; i < 6; i++ {
		tags := []string{"kw-relay"}
		if i%2 == 0 {
			tags = []string{"kw-dest"}
		}
		if _, err := eng.mint(u, now, 1<<20, message.PriorityMedium, 0.5, tags, tags); err != nil {
			t.Fatal(err)
		}
	}
	c := eng.contactUp(world.Pair{Lo: 0, Hi: 1}, now)
	want := cfg.Router.SelectOffers(u, v) // plain nodes: fresh memos and slices
	eng.sender.Node, eng.sender.memo = u, eng.memoFor(c, u)
	got := cfg.Router.SelectOffers(&eng.sender, v)
	if len(got) != 9 || len(got) != len(want) {
		t.Fatalf("%d offers through the contact's memo, %d through fresh walks, want 3 + 6", len(got), len(want))
	}
	for i := range want {
		if got[i].Msg != want[i].Msg || got[i].Role != want[i].Role {
			t.Fatalf("offer %d is %s as %v, want %s as %v", i, got[i].Msg.ID, got[i].Role, want[i].Msg.ID, want[i].Role)
		}
	}
}
