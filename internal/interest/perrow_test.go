package interest

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
	"time"

	"dtnsim/internal/bitset"
	"dtnsim/internal/ident"
	"dtnsim/internal/sim"
)

// This file holds the per-row-refresh round: the exchange round as it ran
// before tables kept a held set. Every refresh writes T_l = now into each
// shared row, and a swept table folds the shared rows' bounds back into its
// deadline after growth. It is the reference Round and Decay must match row
// for row over many rounds of contact churn, where rows leave the held set.
// Reference tables never hold rows, so their anchors are their lastShared
// slots.

// perRowRound is Round with per-row refreshes.
func perRowRound(a, b *Table, aID, bID ident.NodeID, aPeers, bPeers []*Table, now, dt time.Duration) (sweeps, evictions int) {
	var aShared, bShared bitset.Set
	aSwept, aEvicted := a.perRowRefreshAndSweep(&aShared, aPeers, now)
	bSwept, bEvicted := b.perRowRefreshAndSweep(&bShared, bPeers, now)
	grow(a, b, dt)
	if aSwept {
		a.foldSharedDeath(aShared, now)
		sweeps++
	}
	if bSwept {
		b.foldSharedDeath(bShared, now)
		sweeps++
	}
	sec := dt.Seconds()
	a.acquireFrom(b, bID, now, sec)
	b.acquireFrom(a, aID, now, sec)
	return sweeps, aEvicted + bEvicted
}

// perRowDecay is Decay with per-row refreshes.
func perRowDecay(t *Table, peers []*Table, now time.Duration) (sweeps, evictions int) {
	var shared bitset.Set
	swept, evictions := t.perRowRefreshAndSweep(&shared, peers, now)
	if swept {
		t.foldSharedDeath(shared, now)
		sweeps = 1
	}
	return sweeps, evictions
}

// perRowRefreshAndSweep marks in *shared the rows of t that a connected
// peer holds and writes T_l = now into each of them. When t's deadline has
// passed it then sweeps the unshared transient rows and sets the deadline
// to the earliest death bound of the survivors; foldSharedDeath adds the
// refreshed rows once growth has written their weights.
func (t *Table) perRowRefreshAndSweep(shared *bitset.Set, peers []*Table, now time.Duration) (swept bool, evicted int) {
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
// its deadline from their post-growth weights. They share the anchor now,
// and the death bound is monotone in the weight at a fixed anchor, so the
// minimum bound is the bound of the minimum weight.
func (t *Table) foldSharedDeath(shared bitset.Set, now time.Duration) {
	minW := math.Inf(1)
	for wi, w := range shared {
		for m := w &^ t.direct.Word(wi); m != 0; m &= m - 1 {
			if w := t.weights[wi<<6+bits.TrailingZeros64(m)]; w < minW {
				minW = w
			}
		}
	}
	if !math.IsInf(minW, 1) {
		t.mergeDeath(minW, now)
	}
}

// checkRoundsUnderChurn runs a seeded sequence of at least ten rounds over
// four to six tables, each side once through Round/Decay and once through
// the per-row reference. Between rounds contacts come and go, so rows leave
// the held set, and a table now and then declares a keyword (promoting a
// row it may hold). Within a round every linked pair runs an exchange and
// some tables run the decay step alone. After every round the two sides
// must agree on every row's weight, anchor, flags and source, and every
// step on its evictions; every deadline must bound the table's unheld
// transient rows, exactly after a step that swept both sides it touched.
// It returns how many evictions and releases the sequence saw, so callers
// can check it was not vacuous.
func checkRoundsUnderChurn(t testing.TB, seed int64) (evicted, released int) {
	rng := sim.NewRNG(seed)
	params := DefaultParams()
	in := NewInterner()
	n := 4 + rng.Intn(3)
	nKw := 4 + rng.Intn(60)
	now := 10 * time.Minute
	lazy, ref := make([]*Table, n), make([]*Table, n)
	for i := range lazy {
		lazy[i] = randomTable(rng, params, in, nKw, now)
		ref[i] = cloneTable(lazy[i])
	}
	linked := make([][]bool, n)
	for i := range linked {
		linked[i] = make([]bool, n)
	}
	peers := func(tabs []*Table, i int) []*Table {
		var out []*Table
		for j, ok := range linked[i] {
			if ok {
				out = append(out, tabs[j])
			}
		}
		return out
	}
	rounds := 10 + rng.Intn(20)
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Coin(0.3) {
					linked[i][j] = !linked[i][j]
					linked[j][i] = linked[i][j]
				}
			}
		}
		if rng.Coin(0.15) {
			i, kw := rng.Intn(n), fmt.Sprintf("kw%d", rng.Intn(nKw))
			lazy[i].DeclareDirect(kw, now)
			ref[i].DeclareDirect(kw, now)
		}
		dt := time.Duration(rng.Range(float64(time.Second), float64(30*time.Second)))
		for i := 0; i < n; i++ {
			if rng.Coin(0.2) {
				label := fmt.Sprintf("seed %d round %d: decay %d", seed, r, i)
				released += releases(lazy[i], peers(lazy, i))
				ls, le := Decay(lazy[i], peers(lazy, i), now)
				_, re := perRowDecay(ref[i], peers(ref, i), now)
				if le != re {
					t.Fatalf("%s: evicted %d rows, reference %d", label, le, re)
				}
				evicted += le
				checkUnheldDeadline(t, label, lazy[i], ls == 1)
			}
			for j := i + 1; j < n; j++ {
				if !linked[i][j] {
					continue
				}
				label := fmt.Sprintf("seed %d round %d: %d-%d", seed, r, i, j)
				released += releases(lazy[i], peers(lazy, i)) + releases(lazy[j], peers(lazy, j))
				ls, le := Round(lazy[i], lazy[j], ident.NodeID(i), ident.NodeID(j), peers(lazy, i), peers(lazy, j), now, dt)
				_, re := perRowRound(ref[i], ref[j], ident.NodeID(i), ident.NodeID(j), peers(ref, i), peers(ref, j), now, dt)
				if le != re {
					t.Fatalf("%s: evicted %d rows, reference %d", label, le, re)
				}
				evicted += le
				checkUnheldDeadline(t, label+" a", lazy[i], ls == 2)
				checkUnheldDeadline(t, label+" b", lazy[j], ls == 2)
			}
		}
		for i := range lazy {
			requireTablesEqual(t, fmt.Sprintf("seed %d round %d table %d", seed, r, i), lazy[i], ref[i])
		}
		now += time.Duration(rng.Range(0, float64(40*time.Second)))
	}
	return evicted, released
}

// releases counts the rows a refresh of t against peers would release from
// its held set.
func releases(t *Table, peers []*Table) int {
	n := 0
	for wi, h := range t.held {
		var u uint64
		for _, p := range peers {
			u |= p.present.Word(wi)
		}
		n += bits.OnesCount64(h &^ u)
	}
	return n
}

// TestRoundMatchesPerRowRefreshUnderChurn locks the held set against the
// per-row-refresh reference over 300 seeded multi-round sequences.
func TestRoundMatchesPerRowRefreshUnderChurn(t *testing.T) {
	var evicted, released int
	for seed := int64(0); seed < 300; seed++ {
		e, r := checkRoundsUnderChurn(t, seed)
		evicted += e
		released += r
	}
	if evicted == 0 || released == 0 {
		t.Fatalf("%d evictions and %d releases: the sequences are vacuous", evicted, released)
	}
	t.Logf("%d evictions, %d rows released from held", evicted, released)
}

// FuzzRoundMatchesPerRowRefresh runs the churn oracle on fuzzed seeds.
func FuzzRoundMatchesPerRowRefresh(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkRoundsUnderChurn(t, seed)
	})
}
