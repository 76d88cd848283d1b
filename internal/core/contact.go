package core

import (
	"time"

	"dtnsim/internal/message"
	"dtnsim/internal/routing"
	"dtnsim/internal/sim"
	"dtnsim/internal/world"
)

// contact is one live pairwise encounter. A contact is "open" only when
// both radios are on (selfish nodes mostly keep theirs off); closed
// contacts exist solely so the radio coin is flipped once per encounter
// rather than once per tick.
//
// Contacts are arena objects: Engine.acquireContact hands them out of a
// free list and Engine.releaseContact returns them after teardown, keeping
// the transfer-queue backing array and the agenda event handles warm across
// encounters so steady-state contact churn allocates nothing (DESIGN.md
// "Contact lifecycle arena & merge-diff").
//
// Periodic per-contact work (the RTSR exchange round, reputation gossip) is
// event-scheduled on the engine's agenda: contact-up schedules the events,
// contact-down cancels them, and a due event marks the flag consumed by the
// next tick's contact pass — the tick touches only contacts with something
// to do instead of re-deriving dueness from timestamps every step.
type contact struct {
	pair world.Pair
	a, b *Node
	open bool
	dead bool
	// listIdx is the contact's current slot in Engine.contactList (creation
	// order); teardown uses it to compact the list from the first vacated
	// slot instead of sweeping the whole list.
	listIdx   int
	startedAt time.Duration
	// exchangedAt is when the last RTSR round ran, feeding the T_c − T_v
	// growth accounting of the next round (interest.Params.GrowthRate).
	exchangedAt time.Duration
	exchangeEv  *sim.Handle
	gossipEv    *sim.Handle
	exchangeDue bool
	gossipDue   bool
	// queue[queueHead:] are the pending transfers. Dequeuing advances
	// queueHead instead of reslicing from the front, so a long-lived
	// contact releases its consumed prefix (see pop) rather than pinning
	// the backing array's head for the life of the encounter.
	queue     []*transfer
	queueHead int
	active    *transfer
}

// markExchangeDue and markGossipDue are the agenda callbacks: a due event
// only raises a flag; the tick's contact pass consumes it in deterministic
// contact-creation order.
func (c *contact) markExchangeDue(time.Duration) { c.exchangeDue = true }

func (c *contact) markGossipDue(time.Duration) { c.gossipDue = true }

// pending returns the not-yet-started transfers in negotiation order.
func (c *contact) pending() []*transfer { return c.queue[c.queueHead:] }

// resetQueue empties the pending queue while keeping the backing array for
// the contact's next life in the arena; vacated slots are nilled so released
// transfers are not pinned.
func (c *contact) resetQueue() {
	for i := c.queueHead; i < len(c.queue); i++ {
		c.queue[i] = nil
	}
	c.queue = c.queue[:0]
	c.queueHead = 0
}

// push appends a transfer to the pending queue.
func (c *contact) push(t *transfer) { c.queue = append(c.queue, t) }

// pop removes and returns the oldest pending transfer, or nil. Consumed
// slots are nilled immediately so finished transfers can be collected, and
// the buffer is compacted once the consumed prefix dominates it, keeping a
// long-lived contact's queue from growing monotonically.
func (c *contact) pop() *transfer {
	if c.queueHead == len(c.queue) {
		return nil
	}
	t := c.queue[c.queueHead]
	c.queue[c.queueHead] = nil
	c.queueHead++
	switch {
	case c.queueHead == len(c.queue):
		c.queue = c.queue[:0]
		c.queueHead = 0
	case c.queueHead >= 32 && 2*c.queueHead >= len(c.queue):
		n := copy(c.queue, c.queue[c.queueHead:])
		for i := n; i < len(c.queue); i++ {
			c.queue[i] = nil
		}
		c.queue = c.queue[:n]
		c.queueHead = 0
	}
	return t
}

// other returns the peer of n on this contact.
func (c *contact) other(n *Node) *Node {
	if c.a == n {
		return c.b
	}
	return c.a
}

// hasTransfer reports whether msg is already queued or active toward dst.
func (c *contact) hasTransfer(m *message.Message, dst *Node) bool {
	if c.active != nil && c.active.msg.Handle == m.Handle && c.active.to == dst {
		return true
	}
	for _, t := range c.pending() {
		if t.msg.Handle == m.Handle && t.to == dst {
			return true
		}
	}
	return false
}

// transfer is one in-flight message handover over a contact. The link is
// half-duplex: one transfer at a time per contact, both directions sharing
// the queue in negotiation order.
type transfer struct {
	from, to *Node
	msg      *message.Message
	role     routing.PeerRole
	// promise is the incentive attached to this handover (I for the
	// deliverer, the carried promise for relays).
	promise float64
	// prepay is the relay-threshold upfront payment due from the receiver
	// at completion; zero when below threshold.
	prepay    float64
	bytesLeft float64
	elapsed   time.Duration
}
