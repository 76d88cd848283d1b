package core

import (
	"fmt"
	"sort"
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/incentive"
	"dtnsim/internal/interest"
	"dtnsim/internal/message"
	"dtnsim/internal/reputation"
	"dtnsim/internal/routing"
)

// Device is the operator-function façade over a live node (Paper I §4). It
// exposes the eleven user-level operations the paper specifies — Annotate,
// Subscribe, DecayWeights, IncrementWeights, GetMessagesToForward,
// DecideDestOrRelay, DecideBestRelay, ComputeIncentive, RateMessage,
// RateNode, and Enrich — against the engine's state, so applications (and
// the runnable examples) interact with a node the way the Android app's
// screens do.
type Device struct {
	engine *Engine
	node   *Node
}

// Device returns the operator façade for the given node, or an error for an
// unknown ID.
func (e *Engine) Device(id ident.NodeID) (*Device, error) {
	n := e.Node(id)
	if n == nil {
		return nil, fmt.Errorf("core: unknown node %s", id)
	}
	return &Device{engine: e, node: n}, nil
}

// ID returns the device's node identity.
func (d *Device) ID() ident.NodeID { return d.node.id }

// Annotate implements operator function 1: create a message from a payload
// and save its keyword labels. In the deployed app the label candidates
// come from a cloud vision API and the user edits them; here the caller
// supplies both the ground-truth keywords (what the image actually shows)
// and the labels the user saves. Keywords get the ChitChat initial weight
// via the message's annotations; the message lands in the device's buffer.
func (d *Device) Annotate(trueKeywords, labels []string, size int64, prio message.Priority, quality float64) (*message.Message, error) {
	truth := append([]string(nil), trueKeywords...)
	return d.engine.mint(d.node, d.engine.Now(), size, prio, quality, truth, labels)
}

// Subscribe implements operator function 2: add keyword-based interests
// that act as subscription keywords.
func (d *Device) Subscribe(interests ...string) {
	now := d.engine.Now()
	for _, kw := range interests {
		d.node.table.DeclareDirect(kw, now)
	}
}

// DecayWeights implements operator function 3: run the decay phase against
// the currently connected peers — the refresh-and-sweep step of an exchange
// round (interest.Decay). The interests a connected peer holds keep their
// weight and refresh T_l, the others keep decaying lazily, and transient
// interests past their death bound are evicted.
func (d *Device) DecayWeights() {
	e := d.engine
	e.countSweeps(interest.Decay(d.node.table, d.node.peerTables, e.Now()))
}

// IncrementWeights implements operator function 4: run the growth phase
// against the currently connected peers, crediting dt of contact time to
// each. Growth reads the anchors the round's refresh sets, so this runs one
// full exchange round (interest.Round) with each open contact in peer-ID
// order: both ends grow, as in every engine round.
func (d *Device) IncrementWeights(dt time.Duration) {
	e := d.engine
	now := e.Now()
	for _, id := range d.Neighbors() {
		p := e.nodes[id]
		e.countSweeps(interest.Round(d.node.table, p.table, d.node.id, p.id, d.node.peerTables, p.peerTables, now, dt))
	}
}

// GetMessagesToForward implements operator function 5: the messages this
// device would offer the given connected peer under the active router, in
// the order the engine would transmit them.
func (d *Device) GetMessagesToForward(peer ident.NodeID) ([]*message.Message, error) {
	p := d.engine.Node(peer)
	if p == nil {
		return nil, fmt.Errorf("core: unknown peer %s", peer)
	}
	offers := d.engine.offersFor(d.node, p)
	out := make([]*message.Message, len(offers))
	for i, o := range offers {
		out[i] = o.Msg
	}
	return out, nil
}

// DecideDestOrRelay implements operator function 6: classify the peer for
// one message as destination, relay, or neither.
func (d *Device) DecideDestOrRelay(m *message.Message, peer ident.NodeID) (routing.PeerRole, error) {
	p := d.engine.Node(peer)
	if p == nil {
		return routing.RoleNone, fmt.Errorf("core: unknown peer %s", peer)
	}
	return routing.ClassifyPeer(m, d.node, p), nil
}

// DecideBestRelay implements operator function 7: among the candidate
// peers, pick the one with the highest interest-weight sum for the message
// ("Message is forwarded to a relay having the highest encounter
// probability with the destination").
func (d *Device) DecideBestRelay(candidates []ident.NodeID, m *message.Message) (ident.NodeID, error) {
	if len(candidates) == 0 {
		return ident.Nobody, fmt.Errorf("core: no candidate relays")
	}
	keywords := m.Keywords()
	best := ident.Nobody
	bestSum := -1.0
	sorted := append([]ident.NodeID(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, id := range sorted {
		p := d.engine.Node(id)
		if p == nil {
			return ident.Nobody, fmt.Errorf("core: unknown peer %s", id)
		}
		if s := p.table.SumWeights(keywords); s > bestSum {
			bestSum = s
			best = id
		}
	}
	return best, nil
}

// ComputeIncentive implements operator function 8: the tokens this device
// would request for forwarding the message to the peer.
func (d *Device) ComputeIncentive(m *message.Message, peer ident.NodeID) (float64, error) {
	p := d.engine.Node(peer)
	if p == nil {
		return 0, fmt.Errorf("core: unknown peer %s", peer)
	}
	return d.engine.promiseFor(d.node, p, m), nil
}

// RateMessage implements operator function 9: compute and record the
// rating for a received message's source (quality + tag relevance with the
// given confidence) and return the message rating R_i.
func (d *Device) RateMessage(m *message.Message, in reputation.MessageRatingInputs) float64 {
	return d.node.rep.RateSourceMessage(m.Source, in)
}

// RateNode implements operator function 10: the device's current rating of
// the given node (the average over rated messages, blended with gossip).
func (d *Device) RateNode(id ident.NodeID) float64 {
	return d.node.rep.Rating(id)
}

// Enrich implements operator function 11: add further annotations to a
// buffered in-transit message and return the message's new tag set. Each
// new tag is counted and recorded as a TagAdded event, as relay
// enrichment's tags are.
func (d *Device) Enrich(id ident.MessageID, annotations ...string) ([]string, error) {
	m := d.node.buf.Get(id)
	if m == nil {
		return nil, fmt.Errorf("core: message %s not in buffer", id)
	}
	now := d.engine.Now()
	for _, kw := range annotations {
		d.engine.addTag(d.node, m, kw, now)
	}
	return m.Keywords(), nil
}

// InterestRow is one line of the demo app's user-interests screen: the
// keyword, its current weight, and where it came from (SELF for direct
// subscriptions, the peer's address for transient interests).
type InterestRow struct {
	Keyword      string
	Weight       float64
	Direct       bool
	AcquiredFrom ident.NodeID
}

// InterestRows returns the device's interest table in keyword order (the
// demo app's user-interests screen).
func (d *Device) InterestRows() []InterestRow {
	table := d.node.table
	kws := table.Keywords()
	out := make([]InterestRow, 0, len(kws))
	for _, kw := range kws {
		e, ok := table.Row(kw)
		if !ok {
			continue
		}
		out = append(out, InterestRow{
			Keyword: kw,
			// The screen shows the currently observed weight — the lazy
			// table materializes the decayed value, not the stored anchor.
			Weight:       table.Weight(kw),
			Direct:       e.Direct,
			AcquiredFrom: e.AcquiredFrom,
		})
	}
	return out
}

// Balance returns the device's current token balance (the demo app's
// incentive screen).
func (d *Device) Balance() float64 { return d.node.wallet.Balance() }

// Wallet exposes the device's wallet for tests and examples.
func (d *Device) Wallet() *incentive.Wallet { return d.node.wallet }

// Neighbors returns the currently connected peers (the demo app's
// neighbors listing), sorted by ID. It scans the live contacts for the
// node's open ones.
func (d *Device) Neighbors() []ident.NodeID {
	var out []ident.NodeID
	for _, c := range d.engine.contactList {
		if c.open && (c.a == d.node || c.b == d.node) {
			out = append(out, c.other(d.node).id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ReceivedMessages returns the device's buffered messages (the demo app's
// received-messages grid).
func (d *Device) ReceivedMessages() []*message.Message {
	return d.node.buf.Messages()
}
