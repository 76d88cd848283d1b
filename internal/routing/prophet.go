package routing

import (
	"math"
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
)

// PRoPHET's protocol constants: the RFC 6693 defaults P_init = 0.75,
// β = 0.25 and γ = 0.98, with γ applied per ProphetAgingUnit of elapsed
// time.
const (
	ProphetPInit     float64 = 0.75
	ProphetBeta      float64 = 0.25
	ProphetGamma     float64 = 0.98
	ProphetAgingUnit         = 30 * time.Second
)

// Prophet implements the PRoPHET probabilistic router (Lindgren et al.), a
// classic node-centric baseline against ChitChat's data-centric rule. Each
// node maintains delivery predictabilities P(a,b):
//
//	encounter:    P(a,b) ← P(a,b) + (1 − P(a,b))·P_init
//	aging:        P(a,b) ← P(a,b)·γ^k          (k = time units since update)
//	transitivity: P(a,c) ← P(a,c) + (1 − P(a,c))·P(a,b)·P(b,c)·β
//
// A message is handed to an encountered node whose predictability for any
// *interested destination* exceeds the carrier's. Since the paper's network
// is data-centric (destinations are keyword subscribers, not addresses),
// PRoPHET here tracks predictability toward node IDs and the engine's
// destination rule still applies on direct-interest matches.
//
// Unlike the stateless routers, Prophet holds per-node state; create one
// instance per simulation run.
type Prophet struct {
	tables map[ident.NodeID]*prophetTable
	// interests maps keyword → nodes with direct interest, learned lazily
	// from encounters so the router stays decentralised.
	interests map[string][]ident.NodeID
}

type prophetTable struct {
	p        map[ident.NodeID]float64
	lastAged time.Duration
}

var _ Router = (*Prophet)(nil)

// NewProphet returns a PRoPHET router with no encounters recorded.
func NewProphet() *Prophet {
	return &Prophet{
		tables:    make(map[ident.NodeID]*prophetTable),
		interests: make(map[string][]ident.NodeID),
	}
}

// Name implements Router.
func (p *Prophet) Name() string { return "prophet" }

func (p *Prophet) table(id ident.NodeID) *prophetTable {
	t, ok := p.tables[id]
	if !ok {
		t = &prophetTable{p: make(map[ident.NodeID]float64)}
		p.tables[id] = t
	}
	return t
}

func (p *Prophet) age(t *prophetTable, now time.Duration) {
	if now <= t.lastAged {
		return
	}
	k := float64(now-t.lastAged) / float64(ProphetAgingUnit)
	factor := math.Pow(ProphetGamma, k)
	for id, v := range t.p {
		v *= factor
		if v < 1e-6 {
			delete(t.p, id)
			continue
		}
		t.p[id] = v
	}
	t.lastAged = now
}

// OnContact updates both nodes' predictabilities for an encounter at the
// given time, applying the encounter and transitivity rules. The engine
// calls it once per contact-up; it also records the peers' direct interests
// so data-centric destinations can be scored.
func (p *Prophet) OnContact(a, b NodeView, now time.Duration) {
	ta, tb := p.table(a.ID()), p.table(b.ID())
	p.age(ta, now)
	p.age(tb, now)
	// Encounter update.
	ta.p[b.ID()] += (1 - ta.p[b.ID()]) * ProphetPInit
	tb.p[a.ID()] += (1 - tb.p[a.ID()]) * ProphetPInit
	// Transitivity both ways.
	for c, pbc := range tb.p {
		if c == a.ID() {
			continue
		}
		ta.p[c] += (1 - ta.p[c]) * ta.p[b.ID()] * pbc * ProphetBeta
	}
	for c, pac := range ta.p {
		if c == b.ID() {
			continue
		}
		tb.p[c] += (1 - tb.p[c]) * tb.p[a.ID()] * pac * ProphetBeta
	}
	p.learnInterests(a)
	p.learnInterests(b)
}

func (p *Prophet) learnInterests(n NodeView) {
	for _, kw := range n.Interests().Keywords() {
		if !n.Interests().HasDirect(kw) {
			continue
		}
		subs := p.interests[kw]
		found := false
		for _, id := range subs {
			if id == n.ID() {
				found = true
				break
			}
		}
		if !found {
			p.interests[kw] = append(subs, n.ID())
		}
	}
}

// deliveryScore returns the best predictability from carrier toward any
// known subscriber of the message's keywords.
func (p *Prophet) deliveryScore(carrier ident.NodeID, m *message.Message) float64 {
	t, ok := p.tables[carrier]
	if !ok {
		return 0
	}
	best := 0.0
	for _, kw := range m.Keywords() {
		for _, dest := range p.interests[kw] {
			if dest == carrier {
				continue
			}
			if v := t.p[dest]; v > best {
				best = v
			}
		}
	}
	return best
}

// SelectOffers implements Router: offer when the peer is a destination, or
// when the peer's delivery predictability toward an interested subscriber
// beats the carrier's.
func (p *Prophet) SelectOffers(u, v NodeView) []Offer {
	w := newWalk(u, v)
	for w.next() {
		switch m := w.msg(); {
		case w.dest():
			w.offer(RoleDestination)
		case p.deliveryScore(v.ID(), m) > p.deliveryScore(u.ID(), m):
			w.offer(RoleRelay)
		}
	}
	return w.offers
}
