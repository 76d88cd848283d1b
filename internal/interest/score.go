package interest

import (
	"math/bits"
	"time"

	"dtnsim/internal/ident"
)

// This file holds the RTSR rounds over the lazy struct-of-arrays tables:
// the pairwise exchange round (Round) and its decay step alone (Decay), both
// run in place.
//
// Under lazy decay a round never rewrites unshared rows: their stored
// anchors already encode the decayed value (readers materialize it), so the
// round touches only rows whose anchor actually moves — shared rows
// (refresh), mutually-held rows (growth), partner-only rows (acquisition) —
// plus the eviction sweep when the table's nextDeath deadline has passed.
// The refresh itself moves one anchor per table, heldAt, and writes a row's
// lastShared only when the row stops being shared. The historical eager
// round rewrote every row of both tables and probed every (row, peer) pair;
// this one is bitset algebra plus O(touched rows).

// Round performs one RTSR exchange round between a and b for a contact that
// has lasted dt since its previous exchange, writing each step straight
// into both tables, and returns how many of the two tables ran an eviction
// sweep (0–2) and how many rows the sweeps evicted. aPeers/bPeers are the
// complete connected-peer table lists of a and b, each including the
// partner: an interest held by any connected device holds its weight
// (Algorithm 1). Acquired rows record aID or bID as their source. Both
// tables must share Params and an Interner (the engine builds every node
// from one Config).
func Round(a, b *Table, aID, bID ident.NodeID, aPeers, bPeers []*Table, now, dt time.Duration) (sweeps, evictions int) {
	// Each peer list holds the partner, so neither sweep evicts a row the
	// other side holds or shares: the two sweeps commute.
	aSwept, aEvicted := Decay(a, aPeers, now)
	bSwept, bEvicted := Decay(b, bPeers, now)
	grow(a, b, dt)
	sec := dt.Seconds()
	a.acquireFrom(b, bID, now, sec)
	b.acquireFrom(a, aID, now, sec)
	return aSwept + bSwept, aEvicted + bEvicted
}

// Decay runs Algorithm 1 alone on t at now: the refresh-and-sweep step Round
// runs on each side, here without a partner. peers is t's complete
// connected-peer table list. The rows any of them holds become t's held set
// and heldAt moves to now — "if a device with I is connected": these rows
// hold their weight and refresh T_l — while the others keep decaying lazily.
// A row that leaves held is anchored at the old heldAt, where its last
// refresh put it, and folds its death bound into the deadline, so nextDeath
// keeps bounding every unheld transient row. When the deadline has passed,
// an eviction sweep drops the dead unheld transient rows and sets the
// deadline to the earliest death bound of the survivors. It returns how many
// sweeps ran (0 or 1) and how many rows they evicted.
func Decay(t *Table, peers []*Table, now time.Duration) (sweeps, evicted int) {
	for len(t.held) < len(t.present) {
		t.held = append(t.held, 0)
	}
	for wi, p := range t.present {
		var u uint64
		for _, peer := range peers {
			u |= peer.present.Word(wi)
		}
		shared := p & u
		released := t.held[wi] &^ shared
		t.held[wi] = shared
		for m := released; m != 0; m &= m - 1 {
			id := int32(wi<<6 + bits.TrailingZeros64(m))
			t.lastShared[id] = t.heldAt
			if !t.direct.Has(int(id)) {
				t.mergeDeath(t.weights[id], t.heldAt)
			}
		}
	}
	t.heldAt = now

	if now < t.nextDeath {
		return 0, 0
	}
	// Candidates are the unheld transient rows — held rows are kept
	// regardless of weight, exactly as the eager round held them — and
	// deadRow is the eager prune test, so the sweep evicts exactly the rows
	// the eager per-round pass would have. Survivors are unheld, so the
	// rest of the round neither grows nor re-anchors them, and their bounds
	// are final here.
	t.nextDeath = noDeath
	for wi, h := range t.held {
		m := t.present[wi] &^ t.direct.Word(wi) &^ h
		for m != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(m))
			m &= m - 1
			if t.deadRow(id, now) {
				t.removeRow(id)
				evicted++
			} else if d := t.deathBound(t.weights[id], t.anchor(id)); d < t.nextDeath {
				t.nextDeath = d
			}
		}
	}
	return 1, evicted
}

// grow applies Algorithm 2 to every row both tables hold, each side growing
// from the other's pre-growth anchor weight, reproducing the eager Grow's
// arithmetic bit for bit. Such a row is shared on both sides, so the
// refresh left its anchor weight in place and held it at T_l = now: the
// anchors are exactly the decayed-and-refreshed weights the eager round
// grew from. A held row's bound is folded when it leaves held, so growth
// owes the deadline nothing.
func grow(a, b *Table, dt time.Duration) {
	sec := dt.Seconds()
	aRate, bRate := a.params.GrowthRate, b.params.GrowthRate
	nw := min(len(a.present), len(b.present))
	for wi := 0; wi < nw; wi++ {
		// Rows saturated on both sides can only stay at MaxWeight; the sat
		// bitsets mark exactly those rows, so whole words of them drop here
		// without loading a single weight — the dominant case once a dense
		// network's tables have converged.
		g := a.present[wi] & b.present[wi] &^ (a.sat.Word(wi) & b.sat.Word(wi))
		if g == 0 {
			continue
		}
		aDirW, bDirW := a.direct.Word(wi), b.direct.Word(wi)
		base := int32(wi << 6)
		for g != 0 {
			bit := uint(bits.TrailingZeros64(g))
			g &= g - 1
			id := base + int32(bit)
			aw, bw := a.weights[id], b.weights[id]
			aDirBit, bDirBit := aDirW>>bit&1, bDirW>>bit&1
			// A side exactly at MaxWeight can only stay there: deltas are
			// ≥ 0 and clamped, so the write would be a no-op, and skipping
			// it drops two float divisions once the weight-saturation
			// dynamic (DESIGN.md) has pushed dense-network tables to 1.0.
			// A grown weight was below MaxWeight, so only the sat bit's
			// clear→set transition can happen.
			if aw != MaxWeight {
				w := clampWeight(aw + growthDeltaIdx(bw*aRate*sec, aDirBit<<1|bDirBit))
				a.weights[id] = w
				if w == MaxWeight {
					a.sat.Add(int(id))
				}
			}
			if bw != MaxWeight {
				w := clampWeight(bw + growthDeltaIdx(aw*bRate*sec, bDirBit<<1|aDirBit))
				b.weights[id] = w
				if w == MaxWeight {
					b.sat.Add(int(id))
				}
			}
		}
	}
}

// acquireFrom inserts, as transient rows learned from the partner, every
// row the partner p holds that t does not — how "interests of the connected
// devices can be acquired" (Paper II §3.2) — at its first growth from zero:
// Δ over p's observed weight, with t's side transient. p's rows are read
// materialized at now; a row p holds since this round's refresh is anchored
// at heldAt = now and materializes to its anchor. The rows p acquired from
// t this round are ones t holds, so they are skipped.
func (t *Table) acquireFrom(p *Table, from ident.NodeID, now time.Duration, sec float64) {
	rate := t.params.GrowthRate
	for wi, w := range p.present {
		m := w &^ t.present.Word(wi)
		if m == 0 {
			continue
		}
		dirW := p.direct.Word(wi)
		base := int32(wi << 6)
		for m != 0 {
			bit := uint(bits.TrailingZeros64(m))
			m &= m - 1
			id := base + int32(bit)
			dirBit := dirW >> bit & 1
			src, _ := decayedWeight(p.weights[id], dirBit != 0, now-p.anchor(id))
			t.insertRow(id, clampWeight(growthDeltaIdx(src*rate*sec, dirBit)), false, now, from)
		}
	}
}

// psiInvIdx holds 1/ψ indexed by the direct-bit pair localDirect<<1 |
// peerDirect: 0b11→ψ1, 0b10→ψ2, 0b01→ψ3 (true divide, slot unused),
// 0b00→ψ4. The paper spells out two cases ("if both u and v have I as a
// direct interest, ψ is 1; if u has a direct interest and v has a transient
// interest, ψ is 2"); ψ3 and ψ4 extend the pattern: growth is fastest when
// both sides truly care, slowest when the interest is second-hand on both
// sides. The paper's cases 5 and 6 (u does not yet hold I) apply to freshly
// acquired rows, which the round creates as transient before their first
// growth, so they take ψ3 or ψ4. Dividing by 1, 2 or 4 is an exact
// power-of-two scaling, so multiplying by the reciprocal yields the
// bit-identical IEEE754 result.
var psiInvIdx = [4]float64{0.25, 0, 0.5, 1}

// growthDeltaIdx computes x/ψ for the direct-bit pair index k, the division
// strength-reduced to a multiply wherever that is exact. ψ = 3 (local
// transient, peer direct) keeps the divide: 1/3 is not representable and
// the product would round differently.
func growthDeltaIdx(x float64, k uint64) float64 {
	if k == 0b01 {
		return x / 3
	}
	return x * psiInvIdx[k]
}

func clampWeight(w float64) float64 {
	if w > MaxWeight {
		return MaxWeight
	}
	return w
}
