package core

import (
	"fmt"

	"dtnsim/internal/behavior"
	"dtnsim/internal/buffer"
	"dtnsim/internal/enrich"
	"dtnsim/internal/ident"
	"dtnsim/internal/incentive"
	"dtnsim/internal/interest"
	"dtnsim/internal/mobility"
	"dtnsim/internal/radio"
	"dtnsim/internal/reputation"
	"dtnsim/internal/routing"
	"dtnsim/internal/sim"
	"dtnsim/internal/world"
)

// NodeSpec declares one node of the network.
type NodeSpec struct {
	// Role is the user's rank (R_u in the incentive formulas).
	Role ident.Role
	// Profile is the node's behavioural disposition.
	Profile behavior.Profile
	// Interests are the user's subscription keywords.
	Interests []string
	// Mobility supplies the trajectory; nil gets a RandomWaypoint walker
	// over the configured area.
	Mobility mobility.Model
	// Tagger enriches in-transit content; nil gets the engine default
	// (honest for cooperative/selfish nodes, malicious for malicious
	// nodes) when enrichment is active, else NopTagger.
	Tagger enrich.Tagger
	// Class selects the node's message-generator population (Figure 5.6).
	Class MessageClass
}

// Node is one simulated device: position, RTSR table, buffer, wallet,
// reputation store, behaviour, and energy meter.
type Node struct {
	id      ident.NodeID
	role    ident.Role
	profile behavior.Profile
	model   mobility.Model
	table   *interest.Table
	buf     *buffer.Store
	wallet  *incentive.Wallet
	rep     reputation.Model
	tagger  enrich.Tagger
	energy  radio.Energy
	rng     *sim.RNG
	msgSeq  int
	class   MessageClass
	// lastPos is the position the mobility model returned on the last tick
	// (unclamped); Engine.moveNodes skips the grid upsert when a new tick
	// returns the identical point.
	lastPos world.Point
	// workloadEv is the node's pending Poisson message-origination event
	// (Engine.scheduleNextMessage). Holding the handle lets a mid-run
	// workload-rate control re-arm or disarm generation without leaving a
	// stale firing behind. Nil while generation has never been armed.
	workloadEv *sim.Handle
	// peerGen counts changes to the node's peersOf list (open contacts
	// raised or torn down); peerTables caches the interest tables of those
	// contacts' far endpoints and peerTablesGen records the generation it
	// was built at. Exchange rounds gather each node's peer tables through
	// this gen-checked cache, so the rounds touching a node read one list
	// instead of rebuilding a copy per contact, and churn invalidates one
	// list instead of every touching contact's copy
	// (Engine.refreshNodePeers).
	peerGen       uint64
	peerTables    []*interest.Table
	peerTablesGen uint64
}

var _ routing.NodeView = (*Node)(nil)

func newNode(id ident.NodeID, spec NodeSpec, cfg Config, rng *sim.RNG, in *interest.Interner, clock interest.Clock) (Node, error) {
	if err := spec.Profile.Validate(); err != nil {
		return Node{}, fmt.Errorf("node %s: %w", id, err)
	}
	role := spec.Role
	if role == 0 {
		role = ident.RoleCivilian
	}
	if !role.Valid() {
		return Node{}, fmt.Errorf("node %s: invalid role %d", id, int(role))
	}
	table, err := interest.NewTable(cfg.Interest, in, clock)
	if err != nil {
		return Node{}, fmt.Errorf("node %s: %w", id, err)
	}
	for _, kw := range spec.Interests {
		table.DeclareDirect(kw, 0)
	}
	buf, err := buffer.New(cfg.BufferCapacity, cfg.bufferPolicy())
	if err != nil {
		return Node{}, fmt.Errorf("node %s: %w", id, err)
	}
	wallet, err := incentive.NewWallet(id, cfg.Incentive.InitialTokens)
	if err != nil {
		return Node{}, fmt.Errorf("node %s: %w", id, err)
	}
	rep, err := newReputationModel(id, cfg)
	if err != nil {
		return Node{}, fmt.Errorf("node %s: %w", id, err)
	}
	tagger := spec.Tagger
	if tagger == nil {
		tagger = enrich.NopTagger{}
	}
	return Node{
		id:      id,
		role:    role,
		profile: spec.Profile,
		model:   spec.Mobility,
		table:   table,
		buf:     buf,
		wallet:  wallet,
		rep:     rep,
		tagger:  tagger,
		rng:     rng,
		class:   spec.Class,
	}, nil
}

// ID implements routing.NodeView.
func (n *Node) ID() ident.NodeID { return n.id }

// Interests implements routing.NodeView.
func (n *Node) Interests() *interest.Table { return n.table }

// Buffer implements routing.NodeView.
func (n *Node) Buffer() *buffer.Store { return n.buf }

// Profile returns the behaviour profile.
func (n *Node) Profile() behavior.Profile { return n.profile }

// Wallet returns the node's token wallet.
func (n *Node) Wallet() *incentive.Wallet { return n.wallet }

// Reputation returns the node's reputation model.
func (n *Node) Reputation() reputation.Model { return n.rep }

// newReputationModel builds the configured reputation implementation.
func newReputationModel(id ident.NodeID, cfg Config) (reputation.Model, error) {
	switch cfg.ReputationModel {
	case ReputationDRM:
		return reputation.NewStore(id, cfg.Reputation)
	case ReputationBeta:
		return reputation.NewBetaStore(id, cfg.Reputation)
	default:
		return nil, fmt.Errorf("core: unknown reputation model %d", int(cfg.ReputationModel))
	}
}

// batteryDead reports whether the node's radio energy budget is exhausted.
func (n *Node) batteryDead(budget float64) bool {
	return budget > 0 && n.energy.Total() >= budget
}

// nextMessageID mints the node's next message identifier.
func (n *Node) nextMessageID() ident.MessageID {
	n.msgSeq++
	return ident.NewMessageID(n.id, n.msgSeq)
}

// maxBufferStats returns S_m and Q_m for a message n offers: the largest
// size and best quality among n's buffered messages and the offered
// message's own (Algorithm 3 normalises against these). The offered
// message's values always take part, so S ≤ S_m and Q ≤ Q_m hold even for
// a message the buffer no longer holds.
func (n *Node) maxBufferStats(size int64, quality float64) (int64, float64) {
	bufSize, bufQ := n.buf.Maxima()
	if bufSize > size {
		size = bufSize
	}
	if bufQ > quality {
		quality = bufQ
	}
	return size, quality
}
