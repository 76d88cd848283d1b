package interest

import (
	"math/bits"
	"time"

	"dtnsim/internal/ident"
)

// This file holds the eager RTSR forms: Algorithm 1 as a sweep that
// re-anchors every row of a table (DecayAgainst), and Algorithm 2 as a pass
// over map snapshots of the connected peers (Snapshot, Grow). They are the
// paper's three-phase round written literally, kept as the oracle the lazy
// in-place round (Exchange.Run) must reproduce bit for bit.

// DecayAgainst applies the decay algorithm eagerly at time now, treating as
// "connected" every keyword held by any of the peers (Algorithm 1's "if a
// device with I is connected": shared entries refresh T_l, the rest are
// re-anchored at their materialized weight, pruned when dead). The peers
// list must contain every currently connected device's table, not just the
// exchange partner — a transient interest learned from one neighbour must
// not decay while that neighbour is still attached.
func (t *Table) DecayAgainst(now time.Duration, peers ...*Table) {
	var prune []int32
	for wi, w := range t.present {
		m := w
		for m != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(m))
			m &= m - 1
			shared := false
			for _, peer := range peers {
				if peer.present.Has(int(id)) {
					shared = true
					break
				}
			}
			if shared {
				t.lastShared[id] = now
				continue
			}
			if t.reanchor(id, now) {
				prune = append(prune, id)
			}
		}
	}
	for _, id := range prune {
		t.removeRow(id)
	}
}

// reanchor materializes one row at now and re-anchors it there, reporting
// whether the (transient) row is dead instead of writing it.
func (t *Table) reanchor(id int32, now time.Duration) bool {
	direct := t.direct.Has(int(id))
	w, dead := decayedWeight(t.weights[id], direct, now-t.lastShared[id])
	if dead {
		return true
	}
	if w == MaxWeight {
		t.sat.Add(int(id))
	} else {
		t.sat.Remove(int(id))
	}
	t.weights[id] = w
	t.lastShared[id] = now
	if !direct {
		t.mergeDeath(w, now)
	}
	return false
}

// PeerView is the weight snapshot a connected device shares during the
// eager exchange.
type PeerView struct {
	// Peer identifies the connected device.
	Peer ident.NodeID
	// ConnectedFor is the contact time credited this round.
	ConnectedFor time.Duration
	// Weights maps keyword → (weight, direct?) as shared by the peer.
	Weights map[string]PeerWeight
}

// PeerWeight is one shared interest row.
type PeerWeight struct {
	Weight float64
	Direct bool
}

// Snapshot exports the stored anchor weights for the eager exchange. After
// DecayAgainst every row is anchored at now, so these are the decayed
// weights the peer observes.
func (t *Table) Snapshot() map[string]PeerWeight {
	out := make(map[string]PeerWeight, t.count)
	for wi, w := range t.present {
		for w != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			out[t.in.Word(id)] = PeerWeight{Weight: t.weights[id], Direct: t.direct.Has(int(id))}
		}
	}
	return out
}

// Grow applies the growth algorithm (Paper I, Algorithm 2) with the views of
// all currently connected peers. Unknown keywords shared by peers are first
// acquired as transient interests, then grown.
func (t *Table) Grow(now time.Duration, peers []PeerView) {
	// Acquire unknown keywords first so Δ accrues for them this round.
	for _, pv := range peers {
		for kw := range pv.Weights {
			if !t.Has(kw) {
				t.Acquire(kw, pv.Peer, now)
			}
		}
	}
	for wi, w := range t.present {
		m := w
		for m != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(m))
			m &= m - 1
			kw := t.in.Word(id)
			var delta float64
			shared := false
			for _, pv := range peers {
				pw, ok := pv.Weights[kw]
				if !ok {
					continue
				}
				shared = true
				psi := psiCase(t.direct.Has(int(id)), pw.Direct)
				delta += pw.Weight * t.params.GrowthRate * pv.ConnectedFor.Seconds() / float64(psi)
			}
			if shared {
				t.lastShared[id] = now
			}
			nw := t.weights[id] + delta
			if nw > MaxWeight {
				nw = MaxWeight
			}
			if nw == MaxWeight {
				t.sat.Add(int(id))
			} else {
				t.sat.Remove(int(id))
			}
			t.weights[id] = nw
		}
	}
}

// psiCase maps the (local direct?, peer direct?) combination to the paper's
// ψ ∈ {1..4}, the cases psiInvIdx encodes.
func psiCase(localDirect, peerDirect bool) int {
	switch {
	case localDirect && peerDirect:
		return 1
	case localDirect && !peerDirect:
		return 2
	case !localDirect && peerDirect:
		return 3
	default:
		return 4
	}
}
