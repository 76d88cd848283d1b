package world

import (
	"math"
	"testing"
	"testing/quick"

	"dtnsim/internal/ident"
	"dtnsim/internal/sim"
)

func TestPointDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if d := a.Dist(b); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d2 := a.Dist2(b); d2 != 25 {
		t.Errorf("Dist2 = %v, want 25", d2)
	}
}

func TestVectorUnit(t *testing.T) {
	v := Vector{3, 4}
	u := v.Unit()
	if math.Abs(u.Len()-1) > 1e-12 {
		t.Errorf("unit length = %v, want 1", u.Len())
	}
	zero := Vector{}.Unit()
	if zero.DX != 0 || zero.DY != 0 {
		t.Error("unit of zero vector must be zero")
	}
}

func TestSquareKm(t *testing.T) {
	r := SquareKm(5)
	if math.Abs(r.Area()-5e6) > 1 {
		t.Errorf("SquareKm(5).Area() = %v, want 5e6 m²", r.Area())
	}
	if math.Abs(r.Width-r.Height) > 1e-9 {
		t.Error("SquareKm must be square")
	}
}

func TestRectClampContains(t *testing.T) {
	r := Rect{Width: 10, Height: 10}
	inside := Point{5, 5}
	if !r.Contains(inside) {
		t.Error("center must be inside")
	}
	out := Point{-3, 20}
	clamped := r.Clamp(out)
	if !r.Contains(clamped) {
		t.Errorf("clamped point %v must be inside", clamped)
	}
	if clamped.X != 0 || clamped.Y != 10 {
		t.Errorf("Clamp(-3,20) = %v, want (0,10)", clamped)
	}
}

// TestNewGridValidation covers the inputs NewGrid must reject, including
// sizes from a run spec whose cell count overflows the int32 cell indices
// (or int itself): those must be an error, not an allocation panic or a
// silently wrapped tiny grid.
func TestNewGridValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bounds Rect
		cell   float64
	}{
		{"zero cell size", Rect{Width: 100, Height: 100}, 0},
		{"NaN cell size", Rect{Width: 100, Height: 100}, math.NaN()},
		{"empty bounds", Rect{}, 10},
		{"1e12 km2 at 100 m", SquareKm(1e12), 100},
		{"1e300 km2 at 100 m", SquareKm(1e300), 100},
		{"infinite width", Rect{Width: math.Inf(1), Height: 100}, 10},
		{"just past int32", Rect{Width: 65536 * 10, Height: 32768 * 10}, 10},
	} {
		if g, err := NewGrid(tc.bounds, tc.cell); err == nil {
			t.Errorf("%s: got a %d×%d grid, want an error", tc.name, g.cols, g.rows)
		}
	}
}

func mustGrid(t *testing.T, bounds Rect, cell float64) *Grid {
	t.Helper()
	g, err := NewGrid(bounds, cell)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridUpsertAndPosition(t *testing.T) {
	g := mustGrid(t, Rect{Width: 100, Height: 100}, 10)
	g.Upsert(ident.NodeID(1), Point{5, 5})
	p, ok := g.Position(ident.NodeID(1))
	if !ok || p != (Point{5, 5}) {
		t.Fatalf("Position = %v, %v", p, ok)
	}
	g.Upsert(ident.NodeID(1), Point{95, 95})
	p, _ = g.Position(ident.NodeID(1))
	if p != (Point{95, 95}) {
		t.Errorf("after move Position = %v", p)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
}

func TestGridRemove(t *testing.T) {
	g := mustGrid(t, Rect{Width: 100, Height: 100}, 10)
	g.Upsert(ident.NodeID(1), Point{5, 5})
	g.Remove(ident.NodeID(1))
	if _, ok := g.Position(ident.NodeID(1)); ok {
		t.Error("removed node still present")
	}
	g.Remove(ident.NodeID(1)) // removing twice is a no-op
	if g.Len() != 0 {
		t.Errorf("Len = %d, want 0", g.Len())
	}
}

func TestGridClampsOutOfBounds(t *testing.T) {
	g := mustGrid(t, Rect{Width: 100, Height: 100}, 10)
	g.Upsert(ident.NodeID(1), Point{-50, 500})
	p, _ := g.Position(ident.NodeID(1))
	if p.X < 0 || p.Y > 100 {
		t.Errorf("position %v not clamped", p)
	}
}

func TestGridWithin(t *testing.T) {
	g := mustGrid(t, Rect{Width: 100, Height: 100}, 10)
	g.Upsert(ident.NodeID(1), Point{50, 50})
	g.Upsert(ident.NodeID(2), Point{55, 50}) // 5 m away
	g.Upsert(ident.NodeID(3), Point{70, 50}) // 20 m away
	got := g.Within(nil, ident.NodeID(1), 10)
	if len(got) != 1 || got[0] != ident.NodeID(2) {
		t.Errorf("Within(10) = %v, want [n2]", got)
	}
	got = g.Within(nil, ident.NodeID(1), 25)
	if len(got) != 2 {
		t.Errorf("Within(25) = %v, want two nodes", got)
	}
}

func TestGridPairsMatchesBruteForce(t *testing.T) {
	rng := sim.NewRNG(9)
	bounds := Rect{Width: 500, Height: 500}
	const radius = 50.0
	check := func(seed int64) bool {
		g := mustGrid(t, bounds, radius)
		local := sim.NewRNG(seed)
		n := 30 + local.Intn(40)
		pos := make(map[ident.NodeID]Point, n)
		for i := 0; i < n; i++ {
			p := Point{local.Range(0, 500), local.Range(0, 500)}
			id := ident.NodeID(i)
			pos[id] = p
			g.Upsert(id, p)
		}
		got := g.Pairs(nil, radius)
		want := make(map[Pair]bool)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if pos[ident.NodeID(a)].Dist(pos[ident.NodeID(b)]) <= radius {
					want[Pair{ident.NodeID(a), ident.NodeID(b)}] = true
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for _, p := range got {
			if !want[p] {
				return false
			}
		}
		return true
	}
	for i := 0; i < 20; i++ {
		if !check(rng.Int63()) {
			t.Fatal("grid Pairs disagrees with brute force")
		}
	}
}

func TestGridPairsSortedAndDeduplicated(t *testing.T) {
	g := mustGrid(t, Rect{Width: 100, Height: 100}, 10)
	// Cluster of 4 nodes all within range of each other.
	for i := 0; i < 4; i++ {
		g.Upsert(ident.NodeID(i), Point{50 + float64(i), 50})
	}
	pairs := g.Pairs(nil, 10)
	if len(pairs) != 6 {
		t.Fatalf("pairs = %d, want C(4,2)=6: %v", len(pairs), pairs)
	}
	seen := make(map[Pair]bool)
	for i, p := range pairs {
		if p.Lo >= p.Hi {
			t.Errorf("pair %v not ordered", p)
		}
		if seen[p] {
			t.Errorf("duplicate pair %v", p)
		}
		seen[p] = true
		if i > 0 {
			prev := pairs[i-1]
			if prev.Lo > p.Lo || (prev.Lo == p.Lo && prev.Hi > p.Hi) {
				t.Errorf("pairs not sorted at %d: %v after %v", i, p, prev)
			}
		}
	}
}

func TestGridWithinSortedProperty(t *testing.T) {
	check := func(seed int64) bool {
		local := sim.NewRNG(seed)
		g := mustGrid(t, Rect{Width: 200, Height: 200}, 25)
		for i := 0; i < 50; i++ {
			g.Upsert(ident.NodeID(i), Point{local.Range(0, 200), local.Range(0, 200)})
		}
		got := g.WithinPoint(nil, Point{100, 100}, 60)
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGridPairsEmptyAndZeroRadius(t *testing.T) {
	g := mustGrid(t, Rect{Width: 100, Height: 100}, 10)
	if pairs := g.Pairs(nil, 10); len(pairs) != 0 {
		t.Error("empty grid must have no pairs")
	}
	g.Upsert(ident.NodeID(1), Point{50, 50})
	g.Upsert(ident.NodeID(2), Point{50, 50})
	if pairs := g.Pairs(nil, 0); len(pairs) != 0 {
		t.Error("zero radius must yield no pairs")
	}
}
