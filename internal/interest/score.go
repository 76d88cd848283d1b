package interest

import (
	"math"
	"math/bits"
	"time"

	"dtnsim/internal/bitset"
	"dtnsim/internal/ident"
)

// This file holds the RTSR rounds over the lazy struct-of-arrays tables:
// the pairwise exchange round (Exchange.Run) and its decay step alone
// (Exchange.Decay), both run in place.
//
// Under lazy decay a round never rewrites unshared rows: their stored
// anchors already encode the decayed value (readers materialize it), so the
// round touches only rows whose anchor actually moves — shared rows
// (refresh), mutually-held rows (growth), partner-only rows (acquisition) —
// plus the eviction sweep when the table's nextDeath deadline has passed.
// The historical eager round rewrote every row of both tables and probed
// every (row, peer) pair; this one is bitset algebra plus O(touched rows).

// Exchange is the reusable scratch of the RTSR rounds. Not safe for
// concurrent use; the engine owns one and runs every round on it.
type Exchange struct {
	// aShared and bShared mark the rows of a and b that a connected peer
	// holds; a swept table's deadline rebuild walks them after growth.
	aShared, bShared bitset.Set
}

// Run performs one RTSR exchange round between a and b for a contact that
// has lasted dt since its previous exchange, writing each step straight
// into both tables, and returns how many of the two tables ran an eviction
// sweep (0–2) and how many rows the sweeps evicted. aPeers/bPeers are the
// complete connected-peer table lists of a and b, each including the
// partner: an interest held by any connected device holds its weight
// (Algorithm 1). Acquired rows record aID or bID as their source. Both
// tables must share Params and an Interner (the engine builds every node
// from one Config).
func (x *Exchange) Run(a, b *Table, aID, bID ident.NodeID, aPeers, bPeers []*Table, now, dt time.Duration) (sweeps, evictions int) {
	// Each peer list holds the partner, so neither sweep evicts a row the
	// other side holds or shares: the two sweeps commute.
	aSwept, aEvicted := a.refreshAndSweep(&x.aShared, aPeers, now)
	bSwept, bEvicted := b.refreshAndSweep(&x.bShared, bPeers, now)
	grow(a, b, dt)
	if aSwept {
		a.foldSharedDeath(x.aShared, now)
		sweeps++
	}
	if bSwept {
		b.foldSharedDeath(x.bShared, now)
		sweeps++
	}
	sec := dt.Seconds()
	a.acquireFrom(b, bID, now, sec)
	b.acquireFrom(a, aID, now, sec)
	return sweeps, aEvicted + bEvicted
}

// Decay runs Algorithm 1 alone on t at now: Run's refresh-and-sweep step
// without a partner. The rows any of peers holds keep their weight and
// refresh T_l, the others keep decaying lazily, and a due eviction sweep
// drops the dead transient rows. peers is t's complete connected-peer table
// list. It returns how many sweeps ran (0 or 1) and how many rows they
// evicted.
func (x *Exchange) Decay(t *Table, peers []*Table, now time.Duration) (sweeps, evictions int) {
	swept, evictions := t.refreshAndSweep(&x.aShared, peers, now)
	if swept {
		t.foldSharedDeath(x.aShared, now)
		sweeps = 1
	}
	return sweeps, evictions
}

// refreshAndSweep marks in *shared the rows of t that a connected peer
// holds and re-anchors them at now — Algorithm 1's "if a device with I is
// connected": these rows hold their weight and refresh T_l, everything else
// keeps decaying lazily. When t's eviction deadline has passed it then
// sweeps the other transient rows and sets the deadline to the earliest
// death bound of the survivors; foldSharedDeath adds the refreshed rows
// once growth has written their weights. It reports whether the sweep ran
// and how many rows it evicted.
func (t *Table) refreshAndSweep(shared *bitset.Set, peers []*Table, now time.Duration) (swept bool, evicted int) {
	s := shared.Reset(len(t.present))
	*shared = s
	for wi := range s {
		var u uint64
		for _, peer := range peers {
			u |= peer.present.Word(wi)
		}
		s[wi] = t.present[wi] & u
		for m := s[wi]; m != 0; m &= m - 1 {
			t.lastShared[wi<<6+bits.TrailingZeros64(m)] = now
		}
	}

	if now < t.nextDeath {
		return false, 0
	}
	// Candidates are the unshared transient rows — shared rows are held
	// regardless of weight, exactly as the eager round held them — and
	// deadRow is the eager prune test, so the sweep evicts exactly the rows
	// the eager per-round pass would have. Survivors are unshared, so the
	// rest of the round neither grows nor re-anchors them, and their bounds
	// are final here.
	t.nextDeath = noDeath
	for wi, w := range s {
		m := t.present[wi] &^ t.direct.Word(wi) &^ w
		for m != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(m))
			m &= m - 1
			if t.deadRow(id, now) {
				t.removeRow(id)
				evicted++
			} else if d := t.deathBound(t.weights[id], t.lastShared[id]); d < t.nextDeath {
				t.nextDeath = d
			}
		}
	}
	return true, evicted
}

// foldSharedDeath folds the refreshed transient rows of a swept table into
// its deadline, reading their post-growth weights as a full recompute
// would. They all share the anchor now, and the death bound is monotone
// non-decreasing in the weight at a fixed anchor, so their minimum bound is
// the bound of their minimum weight — found with plain compares, one bound
// conversion at the end. Acquisitions merge their own bounds on insert.
func (t *Table) foldSharedDeath(shared bitset.Set, now time.Duration) {
	minW := math.Inf(1)
	for wi, w := range shared {
		m := w &^ t.direct.Word(wi)
		for m != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(m))
			m &= m - 1
			if w := t.weights[id]; w < minW {
				minW = w
			}
		}
	}
	if !math.IsInf(minW, 1) {
		t.mergeDeath(minW, now)
	}
}

// grow applies Algorithm 2 to every row both tables hold, each side growing
// from the other's pre-growth anchor weight, reproducing the eager Grow's
// arithmetic bit for bit. Such a row is shared on both sides, so the
// refresh left its anchor weight in place and set T_l = now: the anchors
// are exactly the decayed-and-refreshed weights the eager round grew from.
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
// materialized at now; a row p refreshed this round is anchored at now and
// materializes to its anchor, so the refresh needs no lookup here. The rows
// p acquired from t this round are ones t holds, so they are skipped.
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
			src, _ := decayedWeight(p.weights[id], dirBit != 0, now-p.lastShared[id])
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
