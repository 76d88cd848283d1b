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
		params:     t.params,
		in:         t.in,
		clock:      t.clock,
		weights:    append([]float64(nil), t.weights...),
		lastShared: append([]time.Duration(nil), t.lastShared...),
		source:     append([]ident.NodeID(nil), t.source...),
		present:    append(bitset.Set(nil), t.present...),
		direct:     append(bitset.Set(nil), t.direct...),
		sat:        append(bitset.Set(nil), t.sat...),
		count:      t.count,
		nextDeath:  t.nextDeath,
	}
}

// randomTable builds a table with a random mix of direct and transient
// rows over the first nKeywords interned keywords. LastShared values spread
// far enough back that decay, pruning, and the div < 1 clamp all trigger.
func randomTable(rng *sim.RNG, params Params, in *Interner, nKeywords int, now time.Duration) *Table {
	t, err := NewTable(params, in, &testClock{now: now})
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

// TestExchangeReuseMatchesFreshScratch pins that a single Exchange reused
// across many rounds (the engine reuses one for every round) computes the
// same result as fresh scratch — scratch state must not leak between
// rounds.
func TestExchangeReuseMatchesFreshScratch(t *testing.T) {
	rng := sim.NewRNG(42)
	params := DefaultParams()
	var x Exchange // reused across trials, like the engine's
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

		x.Run(a, b, 1, 2, aPeers, bPeers, now, dt)

		requireTablesEqual(t, fmt.Sprintf("trial %d table a", trial), a, aFresh)
		requireTablesEqual(t, fmt.Sprintf("trial %d table b", trial), b, bFresh)
	}
}

// TestLazyExchangeMatchesEagerReference is the tentpole equivalence lock:
// one lazy in-place round, starting from a freshly anchored population,
// must be bit-identical to the historical eager sequence — DecayAgainst
// both sides (a first, exactly as the eager round ordered them), exchange
// decayed snapshots, Grow both — on membership, direct flags, provenance,
// and weights observed at the exchange time. Weights compare with ==, not a
// tolerance: the lazy path must reproduce the eager float operations
// exactly. 250 randomized trials cover decay, the div < 1 clamp,
// prune-at-threshold eviction, re-acquisition of just-pruned rows, growth
// clamping, and multi-peer refresh holds.
//
// It also pins each table's eviction deadline: after a round that swept a
// side, its nextDeath is exactly the earliest death bound of its transient
// rows (a deadline folded from pre-growth weights would be earlier and only
// cost extra sweeps, which no other check sees); otherwise it is no later
// than that bound.
func TestLazyExchangeMatchesEagerReference(t *testing.T) {
	rng := sim.NewRNG(7)
	params := DefaultParams()
	var x Exchange
	swept := 0
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

		// Eager reference: decay a first (so b's decay sees a post-prune,
		// as the in-place round's sweep of b does), exchange snapshots,
		// grow.
		aRef.DecayAgainst(now, aPeersRef...)
		bRef.DecayAgainst(now, bPeersRef...)
		snapA := aRef.Snapshot()
		snapB := bRef.Snapshot()
		aRef.Grow(now, []PeerView{{Peer: 2, ConnectedFor: dt, Weights: snapB}})
		bRef.Grow(now, []PeerView{{Peer: 1, ConnectedFor: dt, Weights: snapA}})

		// Every table prunes, so a side sweeps once its deadline is due.
		aSwept, bSwept := now >= a.nextDeath, now >= b.nextDeath
		want := 0
		if aSwept {
			want++
		}
		if bSwept {
			want++
		}
		sweeps, _ := x.Run(a, b, 1, 2, aPeers, bPeers, now, dt)
		if sweeps != want {
			t.Fatalf("trial %d: %d sweeps, want %d", trial, sweeps, want)
		}
		swept += sweeps

		requireSameObserved(t, fmt.Sprintf("trial %d table a", trial), a, aRef, now)
		requireSameObserved(t, fmt.Sprintf("trial %d table b", trial), b, bRef, now)
		checkDeadline(t, fmt.Sprintf("trial %d table a", trial), a, aSwept)
		checkDeadline(t, fmt.Sprintf("trial %d table b", trial), b, bSwept)
	}
	if swept == 0 {
		t.Fatal("no trial swept a table; the deadline check is vacuous")
	}
	t.Logf("%d swept sides", swept)
}

// TestLazyDecayMatchesEagerReference locks Exchange.Decay, the decay step
// alone (Device.DecayWeights), against the eager DecayAgainst the same way:
// membership, flags and weights observed at now compare with ==, and a
// swept table's deadline is exactly its earliest death bound.
func TestLazyDecayMatchesEagerReference(t *testing.T) {
	rng := sim.NewRNG(11)
	params := DefaultParams()
	var x Exchange
	swept := 0
	for trial := 0; trial < 250; trial++ {
		in := NewInterner()
		now := 10 * time.Minute
		nKw := 4 + rng.Intn(24)
		tab := randomTable(rng, params, in, nKw, now)
		var peers []*Table
		for p := rng.Intn(3); p > 0; p-- {
			peers = append(peers, randomTable(rng, params, in, nKw, now))
		}
		ref := cloneTable(tab)
		ref.DecayAgainst(now, peers...)

		sweeps, _ := x.Decay(tab, peers, now)
		swept += sweeps
		label := fmt.Sprintf("trial %d", trial)
		requireSameObserved(t, label, tab, ref, now)
		checkDeadline(t, label, tab, sweeps > 0)
	}
	if swept == 0 {
		t.Fatal("no trial swept the table; the deadline check is vacuous")
	}
}

// requireSameObserved requires lazy to hold the rows of the eager ref with
// the same flags and provenance, and to observe at now the weight ref
// stores. The eager reference re-anchored every row at now, so its stored
// weight is the observed weight; the lazy table must materialize to the
// identical bits.
func requireSameObserved(t *testing.T, label string, lazy, ref *Table, now time.Duration) {
	t.Helper()
	if lazy.Len() != ref.Len() {
		t.Fatalf("%s: %d rows, want %d\n lazy %v\n ref  %v",
			label, lazy.Len(), ref.Len(), lazy.Keywords(), ref.Keywords())
	}
	for _, kw := range ref.Keywords() {
		lr, ok := lazy.Row(kw)
		if !ok {
			t.Fatalf("%s: row %q missing", label, kw)
		}
		rr, _ := ref.Row(kw)
		if lr.Direct != rr.Direct || lr.AcquiredFrom != rr.AcquiredFrom {
			t.Fatalf("%s: row %q flags = %+v, want %+v", label, kw, lr, rr)
		}
		if got, want := lazy.WeightAt(kw, now), ref.WeightAt(kw, now); got != want {
			t.Fatalf("%s: row %q weight = %v, want %v", label, kw, got, want)
		}
	}
}

// checkDeadline compares t's eviction deadline with the earliest death
// bound of its transient rows: equal after a sweep rebuilt it, no later
// otherwise.
func checkDeadline(t *testing.T, label string, tab *Table, swept bool) {
	t.Helper()
	want := noDeath
	for wi, w := range tab.present {
		m := w &^ tab.direct.Word(wi)
		for m != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(m))
			m &= m - 1
			if d := tab.deathBound(tab.weights[id], tab.lastShared[id]); d < want {
				want = d
			}
		}
	}
	if swept && tab.nextDeath != want {
		t.Fatalf("%s: swept deadline %v, want the earliest death bound %v", label, tab.nextDeath, want)
	}
	if !swept && tab.nextDeath > want {
		t.Fatalf("%s: deadline %v later than the earliest death bound %v", label, tab.nextDeath, want)
	}
}
