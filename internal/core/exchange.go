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
	e.countSweeps(interest.Round(c.a.table, c.b.table, c.a.id, c.b.id, c.a.peerTables, c.b.peerTables, now, grown))

	// Routing phase, both directions.
	e.routeDirection(c, c.a, c.b)
	e.routeDirection(c, c.b, c.a)
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

// offersFor asks the router which messages u offers v and puts the offers
// in transmission order (see sortOffers): what Device.GetMessagesToForward
// reports. A contact round does not call it: routeDirection negotiates
// first and orders only the transfers v accepts.
func (e *Engine) offersFor(u, v *Node) []routing.Offer {
	offers := e.router.SelectOffers(u, v)
	e.offerKeys = sortOffers(offers, e.cfg.incentiveActive(), e.offerKeys)
	return offers
}

// senderView is the sender NodeView of one routing call over an open
// contact: the node, plus the routing memo of that contact direction,
// which the routers find through routing.MemoHolder and keep between the
// contact's rounds, and the engine's offer slice, which they append to.
// routing.Router and NodeView are unchanged, so a router wrapper that
// forwards u passes both on.
type senderView struct {
	*Node
	memo   *routing.Memo
	offers []routing.Offer
}

var _ routing.MemoHolder = (*senderView)(nil)

// WalkMemo implements routing.MemoHolder. It lends the offer slice once
// per routing call, so a router that walks twice in one call (one that
// combines two routers' offers) appends the second walk's offers to a
// fresh slice instead of over the first's; routeDirection takes the
// returned slice back.
func (s *senderView) WalkMemo() (*routing.Memo, []routing.Offer) {
	offers := s.offers[:0]
	s.offers = nil
	return s.memo, offers
}

// offerKey is one offer's sort key, read out of its message once per sort.
// Priority and quality stay zero in creation order. msg breaks a full tie
// on the message ID.
type offerKey struct {
	role     routing.PeerRole
	priority message.Priority
	quality  float64
	created  time.Duration
	msg      *message.Message
}

// sortTransmission puts items in transmission order: destinations before
// relays (deliveries beat replication), then — with byPriority, the
// incentive scheme — priority (high first) and quality (best first), then
// creation time (oldest first), then message ID. The priority preference
// is the transmission-order half of the paper's contribution (Figure 5.6):
// when a contact is short, high-priority messages go first. The ChitChat
// baseline has no such machinery and transmits in creation order. IDs are
// unique within a buffer, so the order does not depend on the input's.
//
// of names an item's message and role. The keys are extracted into keys,
// the caller's scratch, which is returned grown for reuse, and a
// hand-rolled insertion sort moves each key together with its item. So a
// comparison reads two adjacent keys and loads the messages only on a
// full tie, to compare IDs, and no closure allocates: the per-round
// routing phase stays allocation-free. It is the one sort of both offers
// (sortOffers) and a round's accepted transfers (routeDirection).
func sortTransmission[T any](items []T, byPriority bool, keys []offerKey, of func(T) (*message.Message, routing.PeerRole)) []offerKey {
	keys = keys[:0]
	for _, it := range items {
		m, role := of(it)
		k := offerKey{role: role, created: m.CreatedAt, msg: m}
		if byPriority {
			k.priority, k.quality = m.Priority, m.Quality
		}
		keys = append(keys, k)
	}
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && keys[j].before(&keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	return keys
}

// before is sortTransmission's strict-less ordering of the items keyed k
// and o.
func (k *offerKey) before(o *offerKey) bool {
	if k.role != o.role {
		return k.role > o.role
	}
	if k.priority != o.priority {
		return k.priority < o.priority
	}
	if k.quality != o.quality {
		return k.quality > o.quality
	}
	if k.created != o.created {
		return k.created < o.created
	}
	return k.msg.ID < o.msg.ID
}

// sortOffers puts offers in transmission order (see sortTransmission).
func sortOffers(offers []routing.Offer, byPriority bool, keys []offerKey) []offerKey {
	return sortTransmission(offers, byPriority, keys, offerOf)
}

func offerOf(o routing.Offer) (*message.Message, routing.PeerRole) { return o.Msg, o.Role }

func transferOf(t *transfer) (*message.Message, routing.PeerRole) { return t.msg, t.role }

// routeDirection runs the routing module for u→v, negotiates the offers in
// the router's order and enqueues the transfers v accepts, in transmission
// order. Negotiating before sorting queues exactly what sorting first did:
// a buffer holds each message once, so no offer's negotiation changes
// another's hasTransfer test; negotiation records no event; and every
// offered copy's tag IDs are already interned. So only accepted transfers
// are sorted, and a refused offer's copy is never loaded for its sort key
// (DESIGN.md "Exact early exits in the contact round").
func (e *Engine) routeDirection(c *contact, u, v *Node) {
	if u.buf.Len() == 0 {
		return
	}
	memo := e.memoFor(c, u)
	e.sender.Node, e.sender.memo = u, memo
	offers := e.router.SelectOffers(&e.sender, v)
	walks, rebuilds := memo.Walks()
	e.ctrWalks.Add(uint64(walks))
	e.ctrWalkRebuilds.Add(uint64(rebuilds))
	if len(offers) > 0 {
		d := direction{u: u, v: v}
		if walks > 0 {
			// The router walked this contact direction's memo, so its
			// entries and floors are current.
			d.memo = memo
		}
		queued := len(c.queue)
		for _, o := range offers {
			k, h := d.entry(o)
			if c.hasTransfer(h, v) {
				continue
			}
			if t, ok := e.negotiate(&d, o, k, h); ok {
				c.push(t)
			}
		}
		e.offerKeys = sortTransmission(c.queue[queued:], e.cfg.incentiveActive(), e.offerKeys, transferOf)
		// The slice is reused by the next call: let it pin no copy.
		clear(offers)
	}
	e.sender.offers = offers[:0]
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
