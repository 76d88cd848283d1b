package interest

import (
	"fmt"
	"math/bits"
	"testing"
	"time"

	"dtnsim/internal/bitset"
	"dtnsim/internal/ident"
	"dtnsim/internal/sim"
)

// cloneTable deep-copies a table onto the same interner, preserving rows,
// weights, flags, counters, and the eviction deadline.
func cloneTable(t *Table) *Table {
	return &Table{
		params:       t.params,
		in:           t.in,
		weights:      append([]float64(nil), t.weights...),
		lastShared:   append([]time.Duration(nil), t.lastShared...),
		source:       append([]ident.NodeID(nil), t.source...),
		present:      append(bitset.Set(nil), t.present...),
		direct:       append(bitset.Set(nil), t.direct...),
		sat:          append(bitset.Set(nil), t.sat...),
		count:        t.count,
		nextDeath:    t.nextDeath,
		invBeta:      t.invBeta,
		invBetaTheta: t.invBetaTheta,
	}
}

// randomTable builds a table with a random mix of direct and transient
// rows over the first nKeywords interned keywords. LastShared values spread
// far enough back that decay, pruning, and the div < 1 clamp all trigger.
func randomTable(rng *sim.RNG, params Params, in *Interner, nKeywords int, now time.Duration) *Table {
	t, err := NewTable(params, in)
	if err != nil {
		panic(err)
	}
	for k := 0; k < nKeywords; k++ {
		if rng.Coin(0.45) {
			continue
		}
		kw := fmt.Sprintf("kw%d", k)
		age := time.Duration(rng.Range(0, float64(2*time.Minute)))
		if rng.Coin(0.3) {
			t.DeclareDirect(kw, now-age)
			t.SetWeight(kw, rng.Range(InitialWeight, MaxWeight))
		} else {
			t.Acquire(kw, ident.NodeID(rng.Intn(50)), now-age)
			t.SetWeight(kw, rng.Range(0, MaxWeight))
		}
	}
	return t
}

func requireTablesEqual(t *testing.T, label string, got, want *Table) {
	t.Helper()
	if got.count != want.count {
		t.Fatalf("%s: %d rows, want %d\n got  %v\n want %v", label, got.count, want.count, got.Keywords(), want.Keywords())
	}
	for wi, w := range want.present {
		for w != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			if !got.present.Has(int(id)) {
				t.Fatalf("%s: row %q missing", label, want.in.Word(id))
			}
			if got.weights[id] != want.weights[id] ||
				got.direct.Has(int(id)) != want.direct.Has(int(id)) ||
				got.lastShared[id] != want.lastShared[id] ||
				got.source[id] != want.source[id] {
				t.Fatalf("%s: row %q = (w=%v d=%v t=%v from=%v), want (w=%v d=%v t=%v from=%v)",
					label, want.in.Word(id),
					got.weights[id], got.direct.Has(int(id)), got.lastShared[id], got.source[id],
					want.weights[id], want.direct.Has(int(id)), want.lastShared[id], want.source[id])
			}
		}
	}
}

// TestExchangePlanReuseMatchesFreshPlan pins that a single ExchangePlan
// reused across many rounds (the engine reuses one plan for every round)
// computes the same result as a fresh plan — scratch state must not leak
// between rounds.
func TestExchangePlanReuseMatchesFreshPlan(t *testing.T) {
	rng := sim.NewRNG(42)
	params := DefaultParams()
	var plan ExchangePlan // reused across trials, like the engine's plan
	for trial := 0; trial < 200; trial++ {
		in := NewInterner()
		now := 10 * time.Minute
		dt := time.Duration(rng.Range(float64(time.Second), float64(90*time.Second)))
		nKw := 4 + rng.Intn(24)

		a := randomTable(rng, params, in, nKw, now)
		b := randomTable(rng, params, in, nKw, now)
		aPeers := []*Table{b}
		bPeers := []*Table{a}
		for p := rng.Intn(3); p > 0; p-- {
			aPeers = append(aPeers, randomTable(rng, params, in, nKw, now))
		}
		for p := rng.Intn(3); p > 0; p-- {
			bPeers = append(bPeers, randomTable(rng, params, in, nKw, now))
		}

		aFresh, bFresh := cloneTable(a), cloneTable(b)
		aPeersFresh := []*Table{bFresh}
		for _, p := range aPeers[1:] {
			aPeersFresh = append(aPeersFresh, cloneTable(p))
		}
		bPeersFresh := []*Table{aFresh}
		for _, p := range bPeers[1:] {
			bPeersFresh = append(bPeersFresh, cloneTable(p))
		}

		exchangeRound(aFresh, bFresh, 1, 2, aPeersFresh, bPeersFresh, now, dt)

		plan.Score(a, b, 1, 2, aPeers, bPeers, now, dt)
		plan.Apply()

		requireTablesEqual(t, fmt.Sprintf("trial %d table a", trial), a, aFresh)
		requireTablesEqual(t, fmt.Sprintf("trial %d table b", trial), b, bFresh)
	}
}

// TestLazyExchangeMatchesEagerReference is the tentpole equivalence lock:
// one lazy Score+Apply round, starting from a freshly anchored population,
// must be bit-identical to the historical eager sequence — DecayAgainst
// both sides (a first, exactly as the eager round ordered them), exchange
// decayed snapshots, Grow both — on membership, direct flags, provenance,
// and weights observed at the exchange time. Weights compare with ==, not a
// tolerance: the lazy path must reproduce the eager float operations
// exactly. 250 randomized trials cover decay, the div < 1 clamp,
// prune-at-threshold eviction, re-acquisition of just-pruned rows, growth
// clamping, and multi-peer refresh holds.
func TestLazyExchangeMatchesEagerReference(t *testing.T) {
	rng := sim.NewRNG(7)
	params := DefaultParams()
	var plan ExchangePlan
	for trial := 0; trial < 250; trial++ {
		in := NewInterner()
		now := 10 * time.Minute
		dt := time.Duration(rng.Range(float64(time.Second), float64(90*time.Second)))
		nKw := 4 + rng.Intn(24)

		a := randomTable(rng, params, in, nKw, now)
		b := randomTable(rng, params, in, nKw, now)
		aPeers := []*Table{b}
		bPeers := []*Table{a}
		for p := rng.Intn(3); p > 0; p-- {
			aPeers = append(aPeers, randomTable(rng, params, in, nKw, now))
		}
		for p := rng.Intn(3); p > 0; p-- {
			bPeers = append(bPeers, randomTable(rng, params, in, nKw, now))
		}

		aRef, bRef := cloneTable(a), cloneTable(b)
		aPeersRef := []*Table{bRef}
		for _, p := range aPeers[1:] {
			aPeersRef = append(aPeersRef, cloneTable(p))
		}
		bPeersRef := []*Table{aRef}
		for _, p := range bPeers[1:] {
			bPeersRef = append(bPeersRef, cloneTable(p))
		}

		// Eager reference: decay a first (so b's sweep sees a post-prune,
		// matching the scored round's ordering), exchange snapshots, grow.
		aRef.DecayAgainst(now, aPeersRef...)
		bRef.DecayAgainst(now, bPeersRef...)
		snapA := aRef.Snapshot()
		snapB := bRef.Snapshot()
		aRef.Grow(now, []PeerView{{Peer: 2, ConnectedFor: dt, Weights: snapB}})
		bRef.Grow(now, []PeerView{{Peer: 1, ConnectedFor: dt, Weights: snapA}})

		plan.Score(a, b, 1, 2, aPeers, bPeers, now, dt)
		plan.Apply()

		check := func(label string, lazy, ref *Table) {
			t.Helper()
			if lazy.Len() != ref.Len() {
				t.Fatalf("trial %d %s: %d rows, want %d\n lazy %v\n ref  %v",
					trial, label, lazy.Len(), ref.Len(), lazy.Keywords(), ref.Keywords())
			}
			for _, kw := range ref.Keywords() {
				lr, ok := lazy.Row(kw)
				if !ok {
					t.Fatalf("trial %d %s: row %q missing", trial, label, kw)
				}
				rr, _ := ref.Row(kw)
				if lr.Direct != rr.Direct || lr.AcquiredFrom != rr.AcquiredFrom {
					t.Fatalf("trial %d %s: row %q flags = %+v, want %+v", trial, label, kw, lr, rr)
				}
				// The eager reference re-anchored every row at now, so its
				// stored weight is the observed weight; the lazy table must
				// materialize to the identical bits.
				if got, want := lazy.WeightAt(kw, now), ref.Weight(kw); got != want {
					t.Fatalf("trial %d %s: row %q weight = %v, want %v", trial, label, kw, got, want)
				}
			}
		}
		check("table a", a, aRef)
		check("table b", b, bRef)
	}
}
