package core

import (
	"time"

	"dtnsim/internal/interest"
	"dtnsim/internal/routing"
)

// runExchange performs one RTSR + routing round over a contact: score the
// round over both tables (eviction sweeps, shared-row refreshes, growth,
// acquisitions — see interest.ExchangePlan), apply it, then run the routing
// module in both directions and enqueue the negotiated transfers (Paper I
// §2.2: "the ChitChat system first invokes the RTSR module ... then invokes
// the message routing").
//
// grown is the contact age accounted this round (T_c − T_v accrues
// incrementally across periodic exchanges, see interest.Params.GrowthRate).
func (e *Engine) runExchange(c *contact, now, grown time.Duration) {
	c.exchangedAt = now

	e.scoreContact(c, now, grown)
	e.plan.Apply()
	if n := e.plan.Evictions(); n > 0 {
		e.ctrEvict.Add(uint64(n))
	}
	if n := e.plan.Sweeps(); n > 0 {
		e.ctrSweep.Add(uint64(n))
	}

	// Routing phase, both directions.
	e.routeDirection(c, c.a, c.b, now)
	e.routeDirection(c, c.b, c.a, now)
}

// scoreContact scores the contact's RTSR round on the engine's reusable
// plan. The round needs each side's full connected-peer set: an interest
// shared by any live neighbour holds its weight (Algorithm 1).
func (e *Engine) scoreContact(c *contact, now, grown time.Duration) {
	e.refreshNodePeers(c.a)
	e.refreshNodePeers(c.b)
	e.plan.Score(c.a.table, c.b.table, c.a.id, c.b.id, c.a.peerTables, c.b.peerTables, now, grown)
}

// refreshNodePeers rebuilds n's cached peer-table list when its peer set
// changed since the cache was built (Node.peerGen moves on every
// open-contact raise/teardown touching the node). The list lives on the
// node, not the contact, so the rounds of every contact touching a node
// share one list until its peer set changes. The caching is sound because
// the list holds the peers' live tables: their row mutations are visible
// through it without a rebuild, and only a change of peers invalidates it.
func (e *Engine) refreshNodePeers(n *Node) {
	if n.peerTablesGen != n.peerGen {
		n.peerTables = peerTablesInto(n.peerTables[:0], e.peersOf[n.id], n)
		n.peerTablesGen = n.peerGen
	}
}

// sortOffersFIFO reorders offers to destination-first, then message
// creation order, dropping the priority/quality preference. The sort is a
// hand-rolled stable insertion sort: offer lists are short (a handful of
// buffered messages per direction), and sort.SliceStable's closure forces
// the slice header to escape — this keeps the per-round routing phase
// allocation-free.
func sortOffersFIFO(offers []routing.Offer) {
	for i := 1; i < len(offers); i++ {
		for j := i; j > 0 && offerBefore(&offers[j], &offers[j-1]); j-- {
			offers[j], offers[j-1] = offers[j-1], offers[j]
		}
	}
}

// offerBefore is sortOffersFIFO's strict-less ordering: destinations before
// relays (Role descending), then message creation time, then message ID.
func offerBefore(x, y *routing.Offer) bool {
	if x.Role != y.Role {
		return x.Role > y.Role
	}
	if x.Msg.CreatedAt != y.Msg.CreatedAt {
		return x.Msg.CreatedAt < y.Msg.CreatedAt
	}
	return x.Msg.ID < y.Msg.ID
}

// peerTablesInto appends the interest tables of all of n's contacts to dst
// (the node's cached scratch slice, see refreshNodePeers).
func peerTablesInto(dst []*interest.Table, contacts []*contact, n *Node) []*interest.Table {
	for _, c := range contacts {
		dst = append(dst, c.other(n).table)
	}
	return dst
}

// routeDirection runs the routing module for u→v and enqueues the
// negotiated transfers.
func (e *Engine) routeDirection(c *contact, u, v *Node, now time.Duration) {
	if u.buf.Len() == 0 {
		return
	}
	offers := e.router.SelectOffers(u, v)
	if !e.cfg.incentiveActive() {
		// The baseline has no incentive-driven priority machinery:
		// priority-ordered transmission is part of the paper's
		// contribution (Figure 5.6), so plain ChitChat transmits in
		// arrival order (destinations still before relays — that is
		// routing, not prioritisation).
		sortOffersFIFO(offers)
	}
	for _, offer := range offers {
		if c.hasTransfer(offer.Msg, v) {
			continue
		}
		t, ok := e.negotiate(u, v, offer, now)
		if !ok {
			continue
		}
		c.push(t)
	}
}

// gossipReputation shares src's notable opinions with dst, implementing the
// contact-time "RTSR+DR module shares ... encountered devices' reputations"
// step. Only opinions that have moved away from the prior are worth
// spreading, and the volume is capped per contact.
func (e *Engine) gossipReputation(src, dst *Node) {
	limit := e.cfg.GossipLimit
	if limit == 0 {
		return
	}
	initial := e.cfg.Reputation.InitialRating
	shared := 0
	// The store is read in place in ascending ID order; the limit makes
	// that order part of the trace.
	for i, known := 0, src.rep.Len(); i < known; i++ {
		id, r := src.rep.Opinion(i)
		if id == dst.id || id == src.id {
			continue
		}
		if diff := r - initial; diff < 0.25 && diff > -0.25 {
			continue
		}
		dst.rep.MergeSecondHand(id, r)
		shared++
		if shared >= limit {
			return
		}
	}
}
