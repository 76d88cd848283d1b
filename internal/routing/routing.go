// Package routing defines the Router abstraction and the four routing
// algorithms the repository ships: ChitChat (the paper's substrate), plus
// Epidemic, Direct Delivery, and Spray-and-Wait as the classic baselines
// the thesis surveys. A router only *selects* messages to offer during a
// contact; payment, reputation gating, and the actual byte transfer are
// layered on top by the engine, which is what lets the incentive scheme be
// "integrated with any other DTN routing scheme" (Paper I §1).
package routing

import (
	"sort"
	"time"

	"dtnsim/internal/buffer"
	"dtnsim/internal/ident"
	"dtnsim/internal/interest"
	"dtnsim/internal/message"
)

// NodeView is the read-only slice of node state a router inspects.
type NodeView interface {
	// ID is the node's identity.
	ID() ident.NodeID
	// Interests is the node's RTSR table.
	Interests() *interest.Table
	// Buffer is the node's message store.
	Buffer() *buffer.Store
}

// PeerRole classifies the receiving node for one message, per the paper's
// data-centric definitions: "a destination for a message is defined as a
// device with direct interest in keywords of the message whereas a relay is
// defined as one with acquired interests".
type PeerRole int

// Role values.
const (
	// RoleNone: the peer neither wants nor should carry the message.
	RoleNone PeerRole = iota + 1
	// RoleRelay: the peer is a better carrier (ChitChat: S_v > S_u).
	RoleRelay
	// RoleDestination: the peer has direct interest in the content.
	RoleDestination
)

// String names the role.
func (r PeerRole) String() string {
	switch r {
	case RoleNone:
		return "none"
	case RoleRelay:
		return "relay"
	case RoleDestination:
		return "destination"
	default:
		return "unknown"
	}
}

// Offer is one message a router proposes to hand from u to v.
type Offer struct {
	Msg  *message.Message
	Role PeerRole
}

// Router selects the messages node u should offer node v during a contact.
type Router interface {
	// Name identifies the algorithm in reports.
	Name() string
	// SelectOffers returns the messages u offers v, most urgent first.
	SelectOffers(u, v NodeView) []Offer
}

// ContactAware is implemented by routers that maintain per-encounter state
// (PRoPHET's delivery predictabilities); the engine calls OnContact once
// per contact establishment.
type ContactAware interface {
	OnContact(a, b NodeView, now time.Duration)
}

// KeywordIDs returns the message's tag set in the interned-ID form used by
// the weight-table fast paths, computing and caching it on first use after
// each tag-set change.
func KeywordIDs(m *message.Message, in *interest.Interner) []int32 {
	if m.KwIDs == nil {
		m.KwIDs = in.IDs(make([]int32, 0, len(m.Annotations)), m.Keywords())
	}
	return m.KwIDs
}

// ClassifyPeer applies the ChitChat destination/relay rule for one message:
// destination if v holds a *direct* interest in any of the message's
// keywords; otherwise relay if v's interest-weight sum strictly exceeds
// u's ("If S_v > S_u for message M, then forward message M to device v").
func ClassifyPeer(m *message.Message, u, v NodeView) PeerRole {
	ids := KeywordIDs(m, u.Interests().Interner())
	if v.Interests().HasDirectAnyID(ids) {
		return RoleDestination
	}
	su := u.Interests().SumWeightsIDs(ids)
	sv := v.Interests().SumWeightsIDs(ids)
	if sv > su {
		return RoleRelay
	}
	return RoleNone
}

// sortOffers orders offers by priority (high first), then quality (best
// first), then creation time (oldest first), then ID for determinism. This
// is the transmission-order half of the paper's priority preference
// (Figure 5.6): when a contact is short, high-priority messages go first.
func sortOffers(offers []Offer) {
	sort.SliceStable(offers, func(i, j int) bool {
		a, b := offers[i].Msg, offers[j].Msg
		if offers[i].Role != offers[j].Role {
			// Destinations before relays: deliveries beat replication.
			return offers[i].Role > offers[j].Role
		}
		if a.Priority != b.Priority {
			return a.Priority < b.Priority
		}
		if a.Quality != b.Quality {
			return a.Quality > b.Quality
		}
		if a.CreatedAt != b.CreatedAt {
			return a.CreatedAt < b.CreatedAt
		}
		return a.ID < b.ID
	})
}

// eligible reports the common offer preconditions: v does not already hold
// the message and v is not already in the message's path (loop avoidance —
// the UUID dedup makes re-offering to past custodians pure overhead).
//
// Two bit tests on v's buffer settle almost every call. A resident message
// is not eligible. A message v never held is: a node enters a copy's path
// only through Message.CopyFor, and the engine keeps that clone only when
// the node's buffer accepts it, so a node off the ever-held set is off
// every path of the message. Only when v held the message once and dropped
// it (evicted or expired) does the path scan run, to tell whether this
// copy passed through v or came down another lineage.
func (v peerCheck) eligible(m *message.Message) bool {
	if v.buf.Has(m.Handle) {
		return false
	}
	if !v.buf.Held(m.Handle) {
		return true
	}
	for _, hop := range m.Path {
		if hop == v.id {
			return false
		}
	}
	return true
}

// peerCheck caches the receiver fields the per-message eligibility test
// reads, hoisting the interface calls out of the buffer scan loop.
type peerCheck struct {
	id  ident.NodeID
	buf *buffer.Store
}

func newPeerCheck(v NodeView) peerCheck {
	return peerCheck{id: v.ID(), buf: v.Buffer()}
}
