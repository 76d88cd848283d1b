package core

import (
	"time"

	"dtnsim/internal/interest"
	"dtnsim/internal/reputation"
	"dtnsim/internal/routing"
)

// Contact-round timing. While a contact lasts, the pair re-runs the RTSR
// exchange and routing round every exchangeInterval and re-shares
// reputations every gossipInterval (the contact-up gossip covers the common
// short encounter); one gossip shares at most gossipLimit rows per
// direction.
const (
	exchangeInterval = 10 * time.Second
	gossipInterval   = 5 * time.Minute
	gossipLimit      = 64
)

// runExchange performs one RTSR + routing round over a contact: run the
// RTSR round in place over both tables (eviction sweeps, shared-row
// refreshes, growth, acquisitions — see interest.Exchange), then run the
// routing module in both directions and enqueue the negotiated transfers
// (Paper I §2.2: "the ChitChat system first invokes the RTSR module ...
// then invokes the message routing"). The RTSR round needs each side's full
// connected-peer set: an interest shared by any live neighbour holds its
// weight (Algorithm 1).
//
// grown is the contact age accounted this round (T_c − T_v accrues
// incrementally across periodic exchanges, see interest.Params.GrowthRate).
func (e *Engine) runExchange(c *contact, now, grown time.Duration) {
	c.exchangedAt = now

	e.refreshNodePeers(c.a)
	e.refreshNodePeers(c.b)
	e.countSweeps(e.exchange.Run(c.a.table, c.b.table, c.a.id, c.b.id, c.a.peerTables, c.b.peerTables, now, grown))

	// Routing phase, both directions.
	e.routeDirection(c, c.a, c.b, now)
	e.routeDirection(c, c.b, c.a, now)
}

// countSweeps adds the eviction sweeps an RTSR step ran, and the rows they
// evicted, to the run counters.
func (e *Engine) countSweeps(sweeps, evictions int) {
	if evictions > 0 {
		e.ctrEvict.Add(uint64(evictions))
	}
	if sweeps > 0 {
		e.ctrSweep.Add(uint64(sweeps))
	}
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

// offersFor asks the router which messages u offers v and puts the offers
// in transmission order (see sortOffers).
func (e *Engine) offersFor(u, v *Node) []routing.Offer {
	offers := e.router.SelectOffers(u, v)
	sortOffers(offers, e.cfg.incentiveActive())
	return offers
}

// sortOffers puts offers in transmission order: destinations before relays
// (deliveries beat replication), then — with byPriority, the incentive
// scheme — priority (high first) and quality (best first), then creation
// time (oldest first), then message ID. The priority preference is the
// transmission-order half of the paper's contribution (Figure 5.6): when a
// contact is short, high-priority messages go first. The ChitChat baseline
// has no such machinery and transmits in creation order. IDs are unique
// within a buffer, so the order does not depend on the router's.
//
// The sort is a hand-rolled insertion sort: offer lists are short, and
// sort.SliceStable's closure allocates on every call; this keeps the
// per-round routing phase allocation-free.
func sortOffers(offers []routing.Offer, byPriority bool) {
	for i := 1; i < len(offers); i++ {
		for j := i; j > 0 && offerBefore(&offers[j], &offers[j-1], byPriority); j-- {
			offers[j], offers[j-1] = offers[j-1], offers[j]
		}
	}
}

// offerBefore is sortOffers' strict-less ordering.
func offerBefore(x, y *routing.Offer, byPriority bool) bool {
	if x.Role != y.Role {
		return x.Role > y.Role
	}
	a, b := x.Msg, y.Msg
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
	for _, offer := range e.offersFor(u, v) {
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
	shared := 0
	// The store is read in place in ascending ID order; the limit makes
	// that order part of the trace.
	for i, known := 0, src.rep.Len(); i < known; i++ {
		id, r := src.rep.Opinion(i)
		if id == dst.id || id == src.id {
			continue
		}
		if diff := r - reputation.InitialRating; diff < 0.25 && diff > -0.25 {
			continue
		}
		dst.rep.MergeSecondHand(id, r)
		shared++
		if shared >= gossipLimit {
			return
		}
	}
}
