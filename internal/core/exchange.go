package core

import (
	"time"

	"dtnsim/internal/interest"
	"dtnsim/internal/message"
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
// refreshes, growth, acquisitions — see interest.Round), then run the
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
	e.countSweeps(interest.Round(c.a.table, c.b.table, c.a.id, c.b.id, c.a.peerTables, c.b.peerTables, now, grown))

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
// in transmission order (see sortOffers). u is a node, or the senderView of
// a contact direction.
func (e *Engine) offersFor(u routing.NodeView, v *Node) []routing.Offer {
	offers := e.router.SelectOffers(u, v)
	e.offerKeys = sortOffers(offers, e.cfg.incentiveActive(), e.offerKeys)
	return offers
}

// senderView is the sender NodeView of one routing call over an open
// contact: the node, plus the routing memo of that contact direction,
// which the routers find through routing.MemoHolder and keep between the
// contact's rounds. routing.Router and NodeView are unchanged, so a router
// wrapper that forwards u passes the memo on.
type senderView struct {
	*Node
	memo *routing.Memo
}

var _ routing.MemoHolder = (*senderView)(nil)

// WalkMemo implements routing.MemoHolder.
func (s *senderView) WalkMemo() *routing.Memo { return s.memo }

// offerKey is one offer's sort key, read out of its message once per sort.
// Priority and quality stay zero in creation order.
type offerKey struct {
	role     routing.PeerRole
	priority message.Priority
	quality  float64
	created  time.Duration
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
// The keys are extracted into keys, the caller's scratch, which is returned
// grown for reuse, and a hand-rolled insertion sort moves each key together
// with its offer. So a comparison reads two adjacent keys and loads the
// messages only on a full tie, to compare IDs, and no closure allocates:
// the per-round routing phase stays allocation-free.
func sortOffers(offers []routing.Offer, byPriority bool, keys []offerKey) []offerKey {
	keys = keys[:0]
	for _, o := range offers {
		k := offerKey{role: o.Role, created: o.Msg.CreatedAt}
		if byPriority {
			k.priority, k.quality = o.Msg.Priority, o.Msg.Quality
		}
		keys = append(keys, k)
	}
	for i := 1; i < len(offers); i++ {
		for j := i; j > 0 && offerBefore(&keys[j], &keys[j-1], &offers[j], &offers[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
			offers[j], offers[j-1] = offers[j-1], offers[j]
		}
	}
	return keys
}

// offerBefore is sortOffers' strict-less ordering of offer x, keyed kx,
// and offer y, keyed ky.
func offerBefore(kx, ky *offerKey, x, y *routing.Offer) bool {
	if kx.role != ky.role {
		return kx.role > ky.role
	}
	if kx.priority != ky.priority {
		return kx.priority < ky.priority
	}
	if kx.quality != ky.quality {
		return kx.quality > ky.quality
	}
	if kx.created != ky.created {
		return kx.created < ky.created
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
	memo := e.memoFor(c, u)
	e.sender = senderView{Node: u, memo: memo}
	offers := e.offersFor(&e.sender, v)
	walks, rebuilds := memo.Walks()
	e.ctrWalks.Add(uint64(walks))
	e.ctrWalkRebuilds.Add(uint64(rebuilds))
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
