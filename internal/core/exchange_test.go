package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/interest"
	"dtnsim/internal/message"
	"dtnsim/internal/routing"
	"dtnsim/internal/sim"
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

// TestExchangeScratchAllocFree asserts the per-round scratch paths stay
// allocation-free in steady state: the offer sort (no closure, no
// slice-header escape) and the gen-checked peer-table gather once the
// node's cached slice has grown to its working size.
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

	in := interest.NewInterner()
	params := interest.DefaultParams()
	mkNode := func(id ident.NodeID) *Node {
		tab, err := interest.NewTable(params, in, &sim.Clock{})
		if err != nil {
			t.Fatal(err)
		}
		return &Node{id: id, table: tab}
	}
	center := mkNode(0)
	contacts := make([]*contact, 8)
	for i := range contacts {
		contacts[i] = &contact{a: center, b: mkNode(ident.NodeID(i + 1))}
	}
	dst := make([]*interest.Table, 0, len(contacts))
	if avg := testing.AllocsPerRun(100, func() {
		dst = peerTablesInto(dst[:0], contacts, center)
	}); avg != 0 {
		t.Errorf("peerTablesInto allocates %.1f objects per gather, want 0", avg)
	}
	if len(dst) != len(contacts) {
		t.Fatalf("gathered %d peer tables, want %d", len(dst), len(contacts))
	}

	// The engine-level gather: a refresh against an unchanged peerGen is a
	// single generation compare, and even a forced rebuild reuses the
	// node's cached slice.
	e := &Engine{peersOf: [][]*contact{contacts}} // center.id is 0
	center.peerGen = 1
	e.refreshNodePeers(center) // grow the cache once
	if avg := testing.AllocsPerRun(100, func() {
		center.peerTablesGen = 0 // force the rebuild path
		e.refreshNodePeers(center)
	}); avg != 0 {
		t.Errorf("refreshNodePeers allocates %.1f objects per rebuild, want 0", avg)
	}
	if len(center.peerTables) != len(contacts) {
		t.Fatalf("cached %d peer tables, want %d", len(center.peerTables), len(contacts))
	}
}
