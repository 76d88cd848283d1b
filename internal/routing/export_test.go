package routing

import (
	"fmt"

	"dtnsim/internal/interest"
	"dtnsim/internal/message"
)

// ReferenceOffers is the copy walk the routers ran before they read the
// buffer columns, kept as the reference the column walk must reproduce: it
// loads every buffered copy, tests eligibility on the copy's handle and
// path, and classifies with refClassifyPeer, which sums S_u with no bit
// ceiling.
func ReferenceOffers(r Router, u, v NodeView) []Offer {
	var offers []Offer
	for _, m := range u.Buffer().Messages() {
		if !refEligible(m, v) {
			continue
		}
		if role := refRole(r, m, u, v); role != RoleNone {
			offers = append(offers, Offer{Msg: m, Role: role})
		}
	}
	return offers
}

// refEligible is the former peerCheck.eligible.
func refEligible(m *message.Message, v NodeView) bool {
	if v.Buffer().Has(m.Handle) {
		return false
	}
	if !v.Buffer().Held(m.Handle) {
		return true
	}
	for _, hop := range m.Path {
		if hop == v.ID() {
			return false
		}
	}
	return true
}

// refRole is the per-message verdict of each router's former SelectOffers
// body.
func refRole(r Router, m *message.Message, u, v NodeView) PeerRole {
	dest := v.Interests().HasDirectAnyID(KeywordIDs(m, u.Interests().Interner()))
	switch r := r.(type) {
	case ChitChat:
		return refClassifyPeer(m, u, v)
	case Direct:
		if refClassifyPeer(m, u, v) == RoleDestination {
			return RoleDestination
		}
	case Epidemic:
		if refClassifyPeer(m, u, v) == RoleDestination {
			return RoleDestination
		}
		return RoleRelay
	case *SprayAndWait:
		switch {
		case refClassifyPeer(m, u, v) == RoleDestination:
			return RoleDestination
		case m.CopiesLeft > 1:
			return RoleRelay
		}
	case TwoHop:
		switch {
		case dest:
			return RoleDestination
		case m.Source == u.ID():
			return RoleRelay
		}
	case *Prophet:
		switch {
		case dest:
			return RoleDestination
		case r.deliveryScore(v.ID(), m) > r.deliveryScore(u.ID(), m):
			return RoleRelay
		}
	default:
		panic(fmt.Sprintf("routing: no reference walk for %T", r))
	}
	return RoleNone
}

// refClassifyPeer is ClassifyPeer as it was before the bit ceiling: the
// destination test, then S_u summed and compared with its ceiling, then
// S_v.
func refClassifyPeer(m *message.Message, u, v NodeView) PeerRole {
	ids := KeywordIDs(m, u.Interests().Interner())
	if v.Interests().HasDirectAnyID(ids) {
		return RoleDestination
	}
	su := u.Interests().SumWeightsIDs(ids)
	if su >= float64(len(ids))*interest.MaxWeight {
		return RoleNone
	}
	if v.Interests().SumWeightsIDs(ids) > su {
		return RoleRelay
	}
	return RoleNone
}
