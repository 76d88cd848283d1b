package world

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"dtnsim/internal/ident"
	"dtnsim/internal/sim"
)

// The per-node queries below (Within, WithinPoint) and the membership
// helpers (Remove, Len) exist for these tests: the engine only ever asks the
// grid for pairs, so the queries serve as an independent cross-check of
// Pairs, Candidates and InRange over the same cells.

// Remove deletes a node from the grid. Removing an absent node is a no-op.
func (g *Grid) Remove(id ident.NodeID) {
	if int(id) < 0 || int(id) >= len(g.cellOf) || g.cellOf[id] < 0 {
		return
	}
	g.removeFromCell(id, g.cellOf[id])
	g.cellOf[id] = -1
}

// Len returns the number of nodes currently in the grid.
func (g *Grid) Len() int {
	n := 0
	for _, c := range g.cellOf {
		if c >= 0 {
			n++
		}
	}
	return n
}

// Within appends to dst all nodes other than id within radius of id's
// position, sorted by NodeID, and returns the extended slice.
func (g *Grid) Within(dst []ident.NodeID, id ident.NodeID, radius float64) []ident.NodeID {
	center, ok := g.Position(id)
	if !ok {
		return dst
	}
	start := len(dst)
	dst = g.withinPoint(dst, center, radius, id)
	slices.Sort(dst[start:])
	return dst
}

// WithinPoint appends all nodes within radius of p, sorted by NodeID.
func (g *Grid) WithinPoint(dst []ident.NodeID, p Point, radius float64) []ident.NodeID {
	start := len(dst)
	dst = g.withinPoint(dst, p, radius, ident.Nobody)
	slices.Sort(dst[start:])
	return dst
}

func (g *Grid) withinPoint(dst []ident.NodeID, center Point, radius float64, exclude ident.NodeID) []ident.NodeID {
	if !(radius > 0) {
		return dst
	}
	xLo, xHi := g.cellRange(center.X, radius, g.cols)
	yLo, yHi := g.cellRange(center.Y, radius, g.rows)
	r2 := radius * radius
	for y := yLo; y <= yHi; y++ {
		for x := xLo; x <= xHi; x++ {
			for _, m := range g.cells[y*g.cols+x] {
				if m == exclude {
					continue
				}
				if g.pos[m].Dist2(center) <= r2 {
					dst = append(dst, m)
				}
			}
		}
	}
	return dst
}

// cellRange returns the cells [lo, hi] along an axis of n cells that a
// radius query around coordinate v must scan: v's cell plus
// ceil(radius/cell) either side, clamped to the grid in float64 before the
// int conversion so neither a huge radius nor a far-off point overflows.
// An empty range comes back as lo > hi.
func (g *Grid) cellRange(v, radius float64, n int) (lo, hi int) {
	c, r := math.Trunc(v/g.cell), math.Ceil(radius/g.cell)
	l, h := math.Max(c-r, 0), math.Min(c+r, float64(n-1))
	if !(l <= h) {
		return 0, -1
	}
	return int(l), int(h)
}

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
	slices.SortFunc(out, comparePairs)
	return out
}

// comparePairs is Pair.Less as a three-way comparison: the comparison sort
// sortPairs must agree with.
func comparePairs(p, q Pair) int {
	if c := cmp.Compare(p.Lo, q.Lo); c != 0 {
		return c
	}
	return cmp.Compare(p.Hi, q.Hi)
}

// TestSortPairsMatchesComparisonSort checks the counting sort against
// slices.SortFunc on random sets of distinct pairs in random order: empty,
// one pair, every pair sharing one Lo, dense sets over a few nodes, and
// sparse sets with IDs up to 20 000, the crowd20k scale. Each sort reuses
// the scratch the previous one grew, from a larger or a smaller Lo range.
func TestSortPairsMatchesComparisonSort(t *testing.T) {
	rng := sim.NewRNG(41)
	var ends []int32
	check := func(label string, ps []Pair) {
		t.Helper()
		for i := len(ps) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			ps[i], ps[j] = ps[j], ps[i]
		}
		want := slices.Clone(ps)
		slices.SortFunc(want, comparePairs)
		ends = sortPairs(ps, ends)
		assertSamePairs(t, label, ps, want)
	}
	check("empty", nil)
	check("one pair", []Pair{{Lo: 7, Hi: 19999}})
	for trial := 0; trial < 200; trial++ {
		// idMax bounds the IDs: dense sets over a few nodes, then
		// sparse ones up to 20 000.
		idMax := 4 + rng.Intn(60)
		if trial%2 == 1 {
			idMax = 20000
		}
		seen := make(map[Pair]bool)
		var ps []Pair
		switch trial % 4 {
		case 0:
			// Every pair shares one Lo.
			lo := ident.NodeID(rng.Intn(idMax - 1))
			for hi := lo + 1; int(hi) < idMax && len(ps) < 300; hi++ {
				if rng.Coin(0.7) {
					ps = append(ps, Pair{Lo: lo, Hi: hi})
				}
			}
		default:
			for n := min(rng.Intn(400), idMax*(idMax-1)/2); len(ps) < n; {
				a, b := ident.NodeID(rng.Intn(idMax)), ident.NodeID(rng.Intn(idMax))
				if a == b {
					continue
				}
				if p := orderedPair(a, b); !seen[p] {
					seen[p] = true
					ps = append(ps, p)
				}
			}
		}
		check(fmt.Sprintf("trial %d, %d pairs under %d", trial, len(ps), idMax), ps)
	}
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
