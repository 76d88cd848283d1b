package interest

import (
	"math"
	"math/bits"
	"time"

	"dtnsim/internal/bitset"
	"dtnsim/internal/ident"
)

// This file holds the pairwise RTSR exchange round over the lazy
// struct-of-arrays tables. ExchangePlan.Score computes the full outcome of
// one round — eviction sweeps, shared-row refreshes, growth, acquisitions —
// without touching either table; Apply then writes it. The engine scores
// and applies each round back to back, reusing one plan's scratch.
//
// Under lazy decay a round never rewrites unshared rows: their stored
// anchors already encode the decayed value (readers materialize it), so the
// round touches only rows whose anchor actually moves — shared rows
// (refresh), mutually-held rows (growth), partner-only rows (acquisition) —
// plus the eviction sweep when the table's nextDeath deadline has passed.
// The historical eager round rewrote every row of both tables and probed
// every (row, peer) pair; this one is bitset algebra plus O(touched rows).
//
// Scoring preserves the eager round's ordering asymmetry: side a is scored
// first, seeing every peer's (including b's) pre-sweep membership; side b
// is scored second, seeing a's post-sweep membership via a's freshly
// scored plan.

// ExchangePlan is a reusable scored-but-unapplied pairwise exchange.
// Not safe for concurrent use; the engine owns one and reuses it for every
// round.
type ExchangePlan struct {
	a, b     *Table
	aID, bID ident.NodeID
	now      time.Duration

	aPlan, bPlan tablePlan
}

// tablePlan is the pending outcome for one endpoint: the touched-row sets
// of the round, as bitsets and ID lists over the table's interned IDs.
type tablePlan struct {
	// shared marks the rows held by at least one connected peer; Apply
	// refreshes their anchor time to now.
	shared bitset.Set
	// evictSet marks the transient rows the sweep found dead; swept is
	// whether the sweep ran (the table's nextDeath deadline had passed) and
	// evicted counts the marked rows. sweepDeath is the min death bound of
	// the sweep's surviving candidates, folded into the fresh table deadline
	// by apply — the sweep walk computes it in passing so no separate
	// recompute pass over the table is needed.
	evictSet   bitset.Set
	evicted    int
	swept      bool
	sweepDeath time.Duration
	// growIDs/growW are the mutually-held rows and their post-growth
	// anchor weights; acqIDs/acqW the partner-only rows acquired this
	// round with their first-growth weights. Both ascending by ID.
	growIDs []int32
	growW   []float64
	acqIDs  []int32
	acqW    []float64
}

// Score computes the full exchange outcome for a contact that has lasted dt
// since its previous exchange, reading but never writing the tables.
// aPeers/bPeers are the complete connected-peer table lists of a and b,
// each including the partner: an interest held by any connected device
// holds its weight (Algorithm 1). Both tables must share Params and an
// Interner (the engine builds every node from one Config).
func (p *ExchangePlan) Score(a, b *Table, aID, bID ident.NodeID, aPeers, bPeers []*Table, now, dt time.Duration) {
	p.a, p.b, p.aID, p.bID, p.now = a, b, aID, bID, now

	// Sweep/refresh phase, preserving the eager round's ordering asymmetry:
	// a is scored first, seeing every peer (including b) pre-sweep; b is
	// scored second, seeing a's membership post-sweep via a's plan, and
	// every other peer pre-sweep.
	p.aPlan.scoreRound(a, now, aPeers, nil, nil)
	if p.aPlan.evicted > 0 {
		p.bPlan.scoreRound(b, now, bPeers, a, &p.aPlan)
	} else {
		// a's post-sweep membership equals its live membership, so b's
		// round needs no partner substitution.
		p.bPlan.scoreRound(b, now, bPeers, nil, nil)
	}

	// Growth phase: both deltas read the other side's anchor weights —
	// mutually-held rows are shared on both sides, so their anchors are
	// exactly the eager round's decayed-and-refreshed values.
	scoreGrowth(&p.aPlan, &p.bPlan, a, b, dt)

	// Acquisition phase: each side acquires the rows only the partner
	// holds post-sweep, at the partner's observed (materialized) weight.
	sec := dt.Seconds()
	p.aPlan.scoreAcquisitions(a, &p.bPlan, b, now, a.params.GrowthRate, sec)
	p.bPlan.scoreAcquisitions(b, &p.aPlan, a, now, b.params.GrowthRate, sec)
}

// Apply writes the scored outcome into both tables. It must follow Score
// with no table mutation in between.
func (p *ExchangePlan) Apply() {
	p.aPlan.apply(p.a, p.bID, p.now)
	p.bPlan.apply(p.b, p.aID, p.now)
}

// Evictions reports how many rows the plan's sweeps evicted; valid after
// Score until the next Score.
func (p *ExchangePlan) Evictions() int { return p.aPlan.evicted + p.bPlan.evicted }

// Sweeps reports how many of the two endpoints ran an eviction sweep this
// round (0–2); valid after Score until the next Score.
func (p *ExchangePlan) Sweeps() int {
	n := 0
	if p.aPlan.swept {
		n++
	}
	if p.bPlan.swept {
		n++
	}
	return n
}

// scoreRound computes one endpoint's shared mask and, when the table's
// eviction deadline has passed, its dead-row sweep. partner/partnerPlan,
// when non-nil, substitute the partner's post-sweep membership for its live
// rows wherever the peer list names the partner.
func (p *tablePlan) scoreRound(t *Table, now time.Duration, peers []*Table, partner *Table, partnerPlan *tablePlan) {
	nw := len(t.present)
	p.shared = p.shared.Reset(nw)
	p.evictSet = p.evictSet.Reset(nw)
	p.evicted = 0
	p.growIDs = p.growIDs[:0]
	p.growW = p.growW[:0]
	p.acqIDs = p.acqIDs[:0]
	p.acqW = p.acqW[:0]

	// shared = t.present ∩ (∪ peers.present), 64 rows per word. Algorithm
	// 1's "if a device with I is connected": these rows hold their weight
	// and refresh T_l; everything else keeps decaying lazily.
	for wi := 0; wi < nw; wi++ {
		var u uint64
		for _, peer := range peers {
			pw := peer.present.Word(wi)
			if peer == partner {
				pw &^= partnerPlan.evictSet.Word(wi)
			}
			u |= pw
		}
		p.shared[wi] = t.present[wi] & u
	}

	// Eviction sweep, only when a transient row could have died since the
	// last sweep. Candidates are unshared transient rows — shared rows are
	// held regardless of weight, exactly as the eager round held them —
	// and deadRow is the same formula the eager prune used, so the sweep
	// evicts exactly the rows the eager per-round pass would have.
	p.swept = t.params.PruneBelow > 0 && now >= t.nextDeath
	if !p.swept {
		return
	}
	p.sweepDeath = noDeath
	for wi := 0; wi < nw; wi++ {
		m := t.present[wi] &^ t.direct.Word(wi) &^ p.shared[wi]
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			id := int32(wi<<6 + b)
			if t.deadRow(id, now) {
				p.evictSet[wi] |= 1 << uint(b)
				p.evicted++
			} else if d := t.deathBound(t.weights[id], t.lastShared[id]); d < p.sweepDeath {
				// Survivors keep their stored (w, T_l) through Apply — they
				// are by construction unshared, not grown, not acquired — so
				// their bounds can be folded into the new deadline here, in
				// the walk that already visits them.
				p.sweepDeath = d
			}
		}
	}
}

// scoreGrowth fills both plans' growth lists: every row alive on both sides
// post-sweep grows from the other side's anchor weight, reproducing the
// eager growthDeltas+applyDeltas arithmetic bit for bit.
func scoreGrowth(aPlan, bPlan *tablePlan, a, b *Table, dt time.Duration) {
	sec := dt.Seconds()
	nw := len(a.present)
	if n := len(b.present); n < nw {
		nw = n
	}
	// Evicted rows must not grow, but an empty eviction set (the common
	// round: no sweep ran, or it found nothing) masks nothing — skip the
	// word loads entirely then.
	aEv, bEv := aPlan.evicted > 0, bPlan.evicted > 0
	// Count the mutually-held rows first so one reservation covers every
	// append target; a freshly created contact's plan otherwise climbs a
	// growslice ladder on each of the four slices.
	n := 0
	for wi := 0; wi < nw; wi++ {
		g := a.present[wi] & b.present[wi]
		// Rows saturated on both sides can only stay at MaxWeight (the
		// per-bit skip below); the sat bitsets mark exactly those rows, so
		// whole words of them drop here without loading a single weight —
		// the dominant case once a dense network's tables have converged.
		g &^= a.sat.Word(wi) & b.sat.Word(wi)
		if aEv {
			g &^= aPlan.evictSet.Word(wi)
		}
		if bEv {
			g &^= bPlan.evictSet.Word(wi)
		}
		n += bits.OnesCount64(g)
	}
	if n == 0 {
		return
	}
	aPlan.growIDs, aPlan.growW = reserveRows(aPlan.growIDs, aPlan.growW, n)
	bPlan.growIDs, bPlan.growW = reserveRows(bPlan.growIDs, bPlan.growW, n)
	aRate, bRate := a.params.GrowthRate, b.params.GrowthRate
	for wi := 0; wi < nw; wi++ {
		g := a.present[wi] & b.present[wi]
		g &^= a.sat.Word(wi) & b.sat.Word(wi)
		if aEv {
			g &^= aPlan.evictSet.Word(wi)
		}
		if bEv {
			g &^= bPlan.evictSet.Word(wi)
		}
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
			// A row exactly at MaxWeight can only stay there: deltas are
			// ≥ 0 and clamped, so clampWeight(MaxWeight+Δ) == MaxWeight and
			// the write would be a no-op. Skipping it drops the dominant
			// per-row cost (two float divisions) once the weight-saturation
			// dynamic (DESIGN.md) has pushed dense-network tables to 1.0.
			// Out-of-range weights (!= rather than >=) still take the full
			// compute-and-clamp path, matching the eager arithmetic.
			if aw == MaxWeight && bw == MaxWeight {
				continue
			}
			aDirBit, bDirBit := aDirW>>bit&1, bDirW>>bit&1
			if aw != MaxWeight {
				aDelta := growthDeltaIdx(bw*aRate*sec, aDirBit<<1|bDirBit)
				aPlan.growIDs = append(aPlan.growIDs, id)
				aPlan.growW = append(aPlan.growW, clampWeight(aw+aDelta))
			}
			if bw != MaxWeight {
				bDelta := growthDeltaIdx(aw*bRate*sec, bDirBit<<1|aDirBit)
				bPlan.growIDs = append(bPlan.growIDs, id)
				bPlan.growW = append(bPlan.growW, clampWeight(bw+bDelta))
			}
		}
	}
}

// reserveRows guarantees capacity for n more rows in an (ids, weights)
// slice pair without changing their contents.
func reserveRows(ids []int32, ws []float64, n int) ([]int32, []float64) {
	if need := len(ids) + n; cap(ids) < need {
		ids = append(make([]int32, 0, need), ids...)
		ws = append(make([]float64, 0, need), ws...)
	}
	return ids, ws
}

// scoreAcquisitions collects the rows alive in the partner's table
// post-sweep that this side will not hold post-sweep, at first-growth
// weight. The source weight is the partner's observed value this round:
// its anchor when the partner's plan refreshes the row (some device shares
// it with the partner), its materialized decayed value otherwise — exactly
// the post-decay weight the eager round exposed to acquisition.
func (p *tablePlan) scoreAcquisitions(t *Table, partner *tablePlan, pt *Table, now time.Duration, rate, sec float64) {
	pEv, ptEv := p.evicted > 0, partner.evicted > 0
	n := 0
	for wi := 0; wi < len(pt.present); wi++ {
		m := pt.present[wi]
		if ptEv {
			m &^= partner.evictSet.Word(wi)
		}
		held := t.present.Word(wi)
		if pEv {
			held &^= p.evictSet.Word(wi)
		}
		m &^= held
		n += bits.OnesCount64(m)
	}
	if n == 0 {
		return
	}
	p.acqIDs, p.acqW = reserveRows(p.acqIDs, p.acqW, n)
	for wi := 0; wi < len(pt.present); wi++ {
		m := pt.present[wi]
		if ptEv {
			m &^= partner.evictSet.Word(wi)
		}
		held := t.present.Word(wi)
		if pEv {
			held &^= p.evictSet.Word(wi)
		}
		m &^= held
		if m == 0 {
			continue
		}
		dirW, sharedW := pt.direct.Word(wi), partner.shared.Word(wi)
		base := int32(wi << 6)
		for m != 0 {
			bit := uint(bits.TrailingZeros64(m))
			m &= m - 1
			id := base + int32(bit)
			dirBit := dirW >> bit & 1
			src := pt.weights[id]
			if sharedW>>bit&1 == 0 {
				src, _ = decayedWeight(pt.params, src, dirBit != 0, now-pt.lastShared[id])
			}
			w := growthDeltaIdx(src*rate*sec, dirBit)
			p.acqIDs = append(p.acqIDs, id)
			p.acqW = append(p.acqW, clampWeight(w))
		}
	}
}

// apply writes one endpoint's plan into its table: evictions, anchor
// refreshes, growth weights, then acquisitions. When a sweep ran, the table
// deadline is rebuilt piecewise to the value a full recompute would give:
// the surviving candidates' min bound was collected during the sweep walk
// (sweepDeath), the refreshed shared transient rows are folded in by the
// walk below (after the growth writes, so their bounds use the post-growth
// weights the recompute would have seen), and acquisitions merge themselves
// via insertRow. Without a sweep the old deadline stays — refreshes and
// growth only push true death times later, so it remains a valid
// conservative bound.
func (p *tablePlan) apply(t *Table, from ident.NodeID, now time.Duration) {
	if p.evicted > 0 {
		for wi, w := range p.evictSet {
			for w != 0 {
				id := int32(wi<<6 + bits.TrailingZeros64(w))
				w &= w - 1
				t.removeRow(id)
			}
		}
	}
	for wi, w := range p.shared {
		for w != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			t.lastShared[id] = now
		}
	}
	for i, id := range p.growIDs {
		w := p.growW[i]
		t.weights[id] = w
		if w == MaxWeight {
			// Grown rows were unsaturated at score time (mutually saturated
			// pairs are masked out of the growth lists), so only the clear→set
			// transition can happen here.
			t.sat.Add(int(id))
		}
	}
	if p.swept {
		t.nextDeath = p.sweepDeath
		// All refreshed rows share the anchor time now, and the death bound
		// is monotone non-decreasing in the weight at a fixed anchor, so the
		// min bound over the shared transient rows is the bound of their
		// minimum weight — found with plain compares, one bound conversion
		// at the end.
		minW := math.Inf(1)
		for wi, w := range p.shared {
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
	for i, id := range p.acqIDs {
		t.insertRow(id, p.acqW[i], false, now, from)
	}
	if p.evicted > 0 {
		t.maybeCompact()
	}
}

// psiInv holds 1/ψ for the exactly-representable cases. Dividing by 1, 2,
// or 4 is an exact power-of-two scaling, so multiplying by the reciprocal
// yields the bit-identical IEEE754 result; only ψ = 3 needs a true divide.
var psiInv = [5]float64{0, 1, 0.5, 0, 0.25}

// growthDelta computes x/ψ with the division strength-reduced to a multiply
// wherever that is exact. ψ = 3 (local transient, peer direct) keeps the
// divide: 1/3 is not representable and the product would round differently.
func growthDelta(x float64, psi int) float64 {
	if psi == 3 {
		return x / 3
	}
	return x * psiInv[psi]
}

// psiInvIdx is psiInv reindexed by the direct-bit pair localDirect<<1 |
// peerDirect, so the growth inner loop maps raw mask bits straight to the
// multiplier without materializing bools or running psiCase's switch:
// 0b11→ψ1, 0b10→ψ2, 0b01→ψ3 (true divide, slot unused), 0b00→ψ4.
var psiInvIdx = [4]float64{0.25, 0, 0.5, 1}

// growthDeltaIdx is growthDelta over the direct-bit pair index; identical
// arithmetic, cheaper dispatch.
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
