package interest

import (
	"fmt"
	"testing"
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/sim"
)

// TestTableCapUnlimitedEquivalence is the bounded-table identity lock: a
// table whose cap can never bind (effectively infinite) must stay
// bit-identical to an unbounded one through the full mutation surface —
// acquisitions, direct declarations, weight writes, eager decay sweeps, and
// whole exchange rounds. The cap machinery may only ever add the single
// count comparison; 250 randomized trials pin that nothing else leaks.
func TestTableCapUnlimitedEquivalence(t *testing.T) {
	rng := sim.NewRNG(99)
	params := DefaultParams()
	for trial := 0; trial < 250; trial++ {
		in := NewInterner()
		now := 10 * time.Minute
		dt := time.Duration(rng.Range(float64(time.Second), float64(90*time.Second)))
		nKw := 4 + rng.Intn(24)

		a := randomTable(rng, params, in, nKw, now)
		b := randomTable(rng, params, in, nKw, now)
		aCap, bCap := cloneTable(a), cloneTable(b)
		aCap.SetCap(1 << 30)
		bCap.SetCap(1 << 30)

		// A shared op tape applied to both populations before the round.
		for op := 0; op < 20; op++ {
			at := now + time.Duration(op)*time.Second
			kw := fmt.Sprintf("kw%d", rng.Intn(nKw+8))
			switch rng.Intn(4) {
			case 0:
				from := ident.NodeID(rng.Intn(50))
				a.Acquire(kw, from, at)
				aCap.Acquire(kw, from, at)
			case 1:
				b.DeclareDirect(kw, at)
				bCap.DeclareDirect(kw, at)
			case 2:
				w := rng.Range(0, MaxWeight)
				a.SetWeight(kw, w)
				aCap.SetWeight(kw, w)
			case 3:
				a.Decay(at, nil)
				aCap.Decay(at, nil)
			}
		}
		later := now + 30*time.Second
		exchangeRound(a, b, 1, 2, []*Table{b}, []*Table{a}, later, dt)
		exchangeRound(aCap, bCap, 1, 2, []*Table{bCap}, []*Table{aCap}, later, dt)

		requireTablesEqual(t, fmt.Sprintf("trial %d table a", trial), aCap, a)
		requireTablesEqual(t, fmt.Sprintf("trial %d table b", trial), bCap, b)
		if n := aCap.CapEvictions() + bCap.CapEvictions(); n != 0 {
			t.Fatalf("trial %d: unreachable cap evicted %d rows", trial, n)
		}
	}
}

// TestTableCapBoundsOccupancy is the bound's property test: under any
// mutation sequence the live row count never exceeds max(cap, direct rows)
// — direct rows are the node's own subscriptions and are never evicted, so
// they alone may hold the table above a small cap; every transient overflow
// must be resolved by the end of the mutating call.
func TestTableCapBoundsOccupancy(t *testing.T) {
	rng := sim.NewRNG(17)
	params := DefaultParams()
	var evictions uint64
	for trial := 0; trial < 100; trial++ {
		in := NewInterner()
		tab, err := NewTable(params, in)
		if err != nil {
			t.Fatal(err)
		}
		capRows := 1 + rng.Intn(6)
		tab.SetCap(capRows)
		check := func(op int) {
			t.Helper()
			directs := 0
			for _, kw := range tab.Keywords() {
				if tab.HasDirect(kw) {
					directs++
				}
			}
			limit := capRows
			if directs > limit {
				limit = directs
			}
			if tab.Len() > limit {
				t.Fatalf("trial %d op %d: %d live rows with cap=%d directs=%d",
					trial, op, tab.Len(), capRows, directs)
			}
		}
		for op := 0; op < 60; op++ {
			at := time.Duration(op) * time.Second
			kw := fmt.Sprintf("kw%d", rng.Intn(20))
			switch rng.Intn(4) {
			case 0:
				tab.Acquire(kw, ident.NodeID(rng.Intn(10)), at)
			case 1:
				tab.DeclareDirect(kw, at)
			case 2:
				tab.SetWeight(kw, rng.Range(0, MaxWeight))
			case 3:
				tab.Decay(at, nil)
			}
			check(op)
		}
		evictions += tab.CapEvictions()
	}
	if evictions == 0 {
		t.Fatal("no cap eviction ever triggered — the property was not exercised")
	}
}

// TestTableCapEvictsLowestWeightTransient pins the victim rule: overflow
// removes the transient row with the lowest materialized weight, never a
// direct row, and a table holding only direct rows may exceed the cap.
func TestTableCapEvictsLowestWeightTransient(t *testing.T) {
	params := DefaultParams()
	tab, err := NewTable(params, NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	tab.SetCap(2)
	tab.Acquire("strong", 1, 0)
	tab.SetWeight("strong", 0.9)
	tab.Acquire("weak", 1, 0)
	tab.SetWeight("weak", 0.1)
	tab.DeclareDirect("mine", 0) // overflow: the weakest transient goes
	if tab.Has("weak") {
		t.Error("lowest-weight transient survived the cap eviction")
	}
	if !tab.Has("strong") || !tab.HasDirect("mine") {
		t.Errorf("wrong victim: keywords now %v", tab.Keywords())
	}
	if got := tab.CapEvictions(); got != 1 {
		t.Errorf("CapEvictions = %d, want 1", got)
	}

	// Further directs first displace the remaining transient, then an
	// all-direct table floats above the cap: subscriptions are never shed.
	tab.DeclareDirect("mine2", 0) // evicts "strong", the last transient
	tab.DeclareDirect("mine3", 0) // nothing left to evict; cap exceeded
	if tab.Has("strong") {
		t.Error("transient survived a direct declaration under a full cap")
	}
	if tab.Len() != 3 {
		t.Errorf("len = %d, want 3 (all-direct overflow)", tab.Len())
	}
	for _, kw := range []string{"mine", "mine2", "mine3"} {
		if !tab.HasDirect(kw) {
			t.Errorf("direct row %q missing", kw)
		}
	}
}

// TestCompactionTruncatesAfterPrune locks the row-compaction path: a sweep
// that prunes the high-ID tail of a table must shrink the dense slices (the
// compactions counter moves), and the compacted table must keep serving
// reads and re-acquisitions of IDs past the truncated extent.
func TestCompactionTruncatesAfterPrune(t *testing.T) {
	params := DefaultParams()
	in := NewInterner()
	tab, err := NewTable(params, in)
	if err != nil {
		t.Fatal(err)
	}
	// One durable direct row at interned ID 0, then a long transient tail
	// spanning several bitset words.
	tab.DeclareDirect("kept", 0)
	tab.SetWeight("kept", 0.9)
	for i := 0; i < 300; i++ {
		kw := fmt.Sprintf("tail%d", i)
		tab.Acquire(kw, 1, 0)
		tab.SetWeight(kw, 0.4)
	}
	// Deep decay prunes every transient (direct rows only approach 0.5),
	// which leaves word 0 as the highest occupied word out of five.
	tab.Decay(1000*time.Second, nil)
	if tab.Len() != 1 {
		t.Fatalf("len after deep decay = %d, want 1", tab.Len())
	}
	if tab.Compactions() == 0 {
		t.Fatal("prune left occupancy at 1/301 rows but no compaction ran")
	}
	if !tab.HasDirect("kept") {
		t.Fatal("compaction lost the surviving direct row")
	}
	if w := tab.Weight("kept"); w < 0.5 || w > 0.9 {
		t.Errorf("surviving weight = %v, want within (0.5, 0.9]", w)
	}
	// Reads of truncated-extent IDs are absent, not out-of-range.
	if tab.Has("tail299") {
		t.Error("pruned tail row still present after compaction")
	}
	// Re-acquiring a high-ID keyword regrows the slices.
	tab.Acquire("tail299", 2, 1001*time.Second)
	tab.SetWeight("tail299", 0.7)
	if !tab.Has("tail299") || tab.Weight("tail299") != 0.7 {
		t.Error("re-acquisition past the compacted extent failed")
	}
	if tab.Len() != 2 {
		t.Errorf("len after re-acquisition = %d, want 2", tab.Len())
	}
}
