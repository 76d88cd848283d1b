package world

import (
	"fmt"
	"math"
	"testing"

	"dtnsim/internal/ident"
	"dtnsim/internal/sim"
)

// pairsFromWithin derives the in-range pair set node by node through Within,
// keeping each (lo, hi) once — the cross-check that the pairwise scans and
// the per-node queries agree on the same geometry.
func pairsFromWithin(g *Grid, ids []ident.NodeID, radius float64) []Pair {
	seen := make(map[Pair]bool)
	var out []Pair
	var scratch []ident.NodeID
	for _, id := range ids {
		scratch = g.Within(scratch[:0], id, radius)
		for _, other := range scratch {
			p := orderedPair(id, other)
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sortPairs(out)
	return out
}

func assertSamePairs(t *testing.T, label string, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d (got %v, want %v)", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// agreeOnAllViews asserts Pairs, Candidates(skin=0), the Within-derived pair
// set, and per-pair InRange all describe the same in-range relation.
func agreeOnAllViews(t *testing.T, g *Grid, ids []ident.NodeID, radius float64) {
	t.Helper()
	pairs := g.Pairs(nil, radius)
	cands := g.Candidates(nil, radius, 0)
	assertSamePairs(t, "candidates(skin=0) vs pairs", cands, pairs)
	assertSamePairs(t, "within-derived vs pairs", pairsFromWithin(g, ids, radius), pairs)
	inPairs := make(map[Pair]bool, len(pairs))
	for _, p := range pairs {
		inPairs[p] = true
	}
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if a == b {
				continue
			}
			p := orderedPair(a, b)
			if g.InRange(a, b, radius) != inPairs[p] {
				t.Fatalf("InRange(%v, %v) = %v disagrees with Pairs", a, b, !inPairs[p])
			}
		}
	}
}

// TestGridRemoveThenReupsert exercises the membership churn the candidate
// path leans on: removing a node and re-upserting the same ID (same or
// different cell) must leave every query consistent, with no stale cell
// membership.
func TestGridRemoveThenReupsert(t *testing.T) {
	g := mustGrid(t, Rect{Width: 300, Height: 300}, 50)
	ids := []ident.NodeID{0, 1, 2, 3}
	g.Upsert(0, Point{10, 10})
	g.Upsert(1, Point{40, 10}) // in range of 0
	g.Upsert(2, Point{200, 200})
	g.Upsert(3, Point{230, 200}) // in range of 2

	g.Remove(1)
	if g.Len() != 3 {
		t.Fatalf("Len after remove = %d, want 3", g.Len())
	}
	if _, ok := g.Position(1); ok {
		t.Fatal("removed node still has a position")
	}
	if g.InRange(0, 1, 50) {
		t.Fatal("InRange true against a removed node")
	}
	agreeOnAllViews(t, g, ids, 50)

	// Re-upsert the same ID into a different cell, then back into its
	// original cell; each state must stay fully consistent.
	g.Upsert(1, Point{205, 195}) // now near 2 and 3
	agreeOnAllViews(t, g, ids, 50)
	if !g.InRange(1, 2, 50) {
		t.Fatal("re-upserted node not found near its new position")
	}
	g.Upsert(1, Point{40, 10})
	agreeOnAllViews(t, g, ids, 50)
	if !g.InRange(0, 1, 50) {
		t.Fatal("re-upserted node not found back at its original position")
	}
	if g.Len() != 4 {
		t.Fatalf("Len after re-upsert = %d, want 4", g.Len())
	}

	// Remove/re-upsert repeatedly within one cell: membership slices must
	// not accumulate duplicates (a duplicate would double-count pairs).
	for i := 0; i < 10; i++ {
		g.Remove(1)
		g.Upsert(1, Point{40, 10})
	}
	agreeOnAllViews(t, g, ids, 50)
	if got := g.Pairs(nil, 50); len(got) != 2 {
		t.Fatalf("pairs after churn = %v, want exactly {0,1} and {2,3}", got)
	}
}

// TestGridBoundaryDistance pins the inclusive contract at dist == radius:
// Pairs, Within, Candidates, and InRange all use ≤, so two nodes exactly one
// radius apart are in range — and a pair exactly radius+skin apart is a
// candidate.
func TestGridBoundaryDistance(t *testing.T) {
	g := mustGrid(t, Rect{Width: 400, Height: 400}, 100)
	ids := []ident.NodeID{0, 1, 2}
	g.Upsert(0, Point{50, 50})
	g.Upsert(1, Point{150, 50})  // exactly 100 from node 0
	g.Upsert(2, Point{150, 175}) // exactly 125 from node 1

	agreeOnAllViews(t, g, ids, 100)
	if !g.InRange(0, 1, 100) {
		t.Fatal("dist == radius must be in range (inclusive boundary)")
	}
	pairs := g.Pairs(nil, 100)
	if len(pairs) != 1 || pairs[0] != (Pair{Lo: 0, Hi: 1}) {
		t.Fatalf("pairs = %v, want exactly {0,1}", pairs)
	}
	// Node 2 sits exactly on the candidate boundary radius+skin = 125: it
	// must appear in the candidate set but not the exact pair set.
	cands := g.Candidates(nil, 100, 25)
	if len(cands) != 2 || cands[1] != (Pair{Lo: 1, Hi: 2}) {
		t.Fatalf("candidates = %v, want {0,1} and {1,2}", cands)
	}
	if g.InRange(1, 2, 100) {
		t.Fatal("candidate beyond the exact radius must fail InRange")
	}
}

// TestGridClampedOutOfBounds drops points outside the bounds (which Upsert
// clamps onto the boundary) and checks every query agrees on the clamped
// geometry — including candidates at a widened radius spanning extra cells.
func TestGridClampedOutOfBounds(t *testing.T) {
	bounds := Rect{Width: 200, Height: 200}
	g := mustGrid(t, bounds, 50)
	ids := []ident.NodeID{0, 1, 2, 3}
	g.Upsert(0, Point{-80, -40}) // clamps to (0, 0)
	g.Upsert(1, Point{30, -999}) // clamps to (30, 0): 30 m from node 0
	g.Upsert(2, Point{999, 999}) // clamps to (200, 200)
	g.Upsert(3, Point{180, 260}) // clamps to (180, 200): 20 m from node 2

	for _, tc := range []struct {
		id   ident.NodeID
		want Point
	}{
		{0, Point{0, 0}}, {1, Point{30, 0}}, {2, Point{200, 200}}, {3, Point{180, 200}},
	} {
		got, ok := g.Position(tc.id)
		if !ok || got != tc.want {
			t.Fatalf("position %v = %v (ok=%v), want %v", tc.id, got, ok, tc.want)
		}
	}
	agreeOnAllViews(t, g, ids, 50)
	want := []Pair{{Lo: 0, Hi: 1}, {Lo: 2, Hi: 3}}
	assertSamePairs(t, "clamped pairs", g.Pairs(nil, 50), want)
	// The widened candidate scan (radius+skin spans two cells of reach)
	// must agree with a plain Pairs at the widened radius.
	assertSamePairs(t, "clamped candidates", g.Candidates(nil, 50, 60), g.Pairs(nil, 110))
}

// TestCandidatesMatchWidenedPairs is the candidate-path property test: for
// random populations, including points clamped in from outside the bounds,
// Candidates equals Pairs at radius+skin.
func TestCandidatesMatchWidenedPairs(t *testing.T) {
	rng := sim.NewRNG(11)
	bounds := Rect{Width: 900, Height: 700}
	const radius, skin = 100, 30
	for trial := 0; trial < 25; trial++ {
		g, err := NewGrid(bounds, radius)
		if err != nil {
			t.Fatal(err)
		}
		nodes := 20 + rng.Intn(180)
		for i := 0; i < nodes; i++ {
			p := Point{
				X: rng.Range(-200, bounds.Width+200),
				Y: rng.Range(-200, bounds.Height+200),
			}
			g.Upsert(ident.NodeID(i), p)
		}
		assertSamePairs(t, "candidates vs widened pairs", g.Candidates(nil, radius, skin), g.Pairs(nil, radius+skin))
	}
}

// TestGridHugeRadiusReachesEveryCell pins the neighbour-reach clamp: a
// radius far beyond the grid (a huge kinetic skin) must see every pair and
// every neighbour, however many cells apart, and finish promptly instead of
// overflowing the cell reach or walking offsets far outside the grid.
func TestGridHugeRadiusReachesEveryCell(t *testing.T) {
	bounds := Rect{Width: 1000, Height: 600}
	g := mustGrid(t, bounds, 100)
	rng := sim.NewRNG(5)
	var ids []ident.NodeID
	for i := 0; i < 30; i++ {
		g.Upsert(ident.NodeID(i), Point{X: rng.Range(0, bounds.Width), Y: rng.Range(0, bounds.Height)})
		ids = append(ids, ident.NodeID(i))
	}
	var all []Pair
	for a := range ids {
		for b := a + 1; b < len(ids); b++ {
			all = append(all, Pair{Lo: ids[a], Hi: ids[b]})
		}
	}
	for _, radius := range []float64{1e300, 1e12, math.MaxFloat64} {
		assertSamePairs(t, fmt.Sprintf("pairs at %g", radius), g.Pairs(nil, radius), all)
		assertSamePairs(t, fmt.Sprintf("candidates at skin %g", radius), g.Candidates(nil, 100, radius), all)
		if got := g.Within(nil, 0, radius); len(got) != len(ids)-1 {
			t.Fatalf("Within at %g sees %d nodes, want %d", radius, len(got), len(ids)-1)
		}
		if got := g.WithinPoint(nil, Point{X: -1e9, Y: 1e9}, radius); len(got) != len(ids) {
			t.Fatalf("WithinPoint far outside at %g sees %d nodes, want %d", radius, len(got), len(ids))
		}
	}
}
