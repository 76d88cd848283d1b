// Package routing defines the Router abstraction and the four routing
// algorithms the repository ships: ChitChat (the paper's substrate), plus
// Epidemic, Direct Delivery, and Spray-and-Wait as the classic baselines
// the thesis surveys. A router only *selects* messages to offer during a
// contact; payment, reputation gating, and the actual byte transfer are
// layered on top by the engine, which is what lets the incentive scheme be
// "integrated with any other DTN routing scheme" (Paper I §1).
package routing

import (
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
	// entry is one more than the index of the walk memo entry the offer
	// was made from, or 0 (see MemoEntry).
	entry int32
}

// MemoEntry returns the index of the entry of u's walk memo that the offer
// was made from, if a walk made it: the engine reads the entry's cached
// award floor (Memo.Floor). An offer built elsewhere names no entry.
func (o Offer) MemoEntry() (int, bool) { return int(o.entry) - 1, o.entry > 0 }

// Router selects the messages node u should offer node v during a contact.
type Router interface {
	// Name identifies the algorithm in reports.
	Name() string
	// SelectOffers returns the messages u offers v, in u's buffer order;
	// the engine puts them in transmission order. The caller owns the
	// returned slice: when u is a MemoHolder, it is the caller's own
	// array, which the next call reuses.
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
	return relayRole(ids, u.Interests(), v.Interests())
}

// relayRole is ChitChat's relay test for a copy whose receiver is not a
// destination: relay if S_v > S_u, else none.
//
// S_u is settled first because it usually settles the relay test alone.
// No weight exceeds interest.MaxWeight, which is 1, so each partial sum of
// S_v's k = len(ids) terms stays at or below its integer bound (rounding
// is monotone and small integers are exact): S_v ≤ k. A sender already at
// that ceiling, as saturated senders are on almost every round, cannot be
// beaten, and S_v is not summed. Most such senders hold every tag at
// MaxWeight from a refresh younger than the fresh-read bound, and
// Table.AtCeilingIDs proves S_u = k from bits before any weight is read;
// the others sum S_u.
func relayRole(ids []int32, ut, vt *interest.Table) PeerRole {
	if ut.AtCeilingIDs(ids) {
		return RoleNone
	}
	su := ut.SumWeightsIDs(ids)
	if su >= float64(len(ids))*interest.MaxWeight {
		return RoleNone
	}
	if vt.SumWeightsIDs(ids) > su {
		return RoleRelay
	}
	return RoleNone
}
