package world

import (
	"fmt"
	"math"
	"sort"

	"dtnsim/internal/ident"
)

// Grid is a spatial hash over the simulation area. Cell size equals the
// query radius, so a radius query needs to inspect at most the 3×3 block of
// cells around the query point. Positions are updated in place each step and
// neighbor queries are read-only, which keeps the per-step cost linear in
// the number of nodes plus the number of nearby pairs.
//
// Node state is kept in dense slices indexed directly by NodeID: the engine
// mints IDs as 0..n-1 (see ident.NodeID), so pos/cellOf lookups — two per
// node per tick on the mobility path — are array loads instead of the map
// probes that previously dominated the step profile. Sparse IDs work but
// cost O(maxID) memory.
type Grid struct {
	bounds Rect
	cell   float64
	cols   int
	rows   int
	cells  [][]ident.NodeID
	pos    []Point // indexed by NodeID; valid only where cellOf >= 0
	cellOf []int32 // indexed by NodeID; -1 = absent
	count  int
}

// NewGrid builds a grid over bounds with the given cell size (normally the
// radio range). Cell size must be positive, and the cell count must fit the
// int32 cell indices the grid stores per node: sizes can arrive from outside
// the program (a run spec's area), so an area too large for its radio range
// is an error here rather than an allocation panic or a silently wrapped
// cell count.
func NewGrid(bounds Rect, cellSize float64) (*Grid, error) {
	if !(cellSize > 0) {
		return nil, fmt.Errorf("world: cell size must be positive, got %v", cellSize)
	}
	if !(bounds.Width > 0 && bounds.Height > 0) {
		return nil, fmt.Errorf("world: bounds must have positive area, got %v×%v", bounds.Width, bounds.Height)
	}
	cols := math.Ceil(bounds.Width/cellSize) + 1
	rows := math.Ceil(bounds.Height/cellSize) + 1
	if n := cols * rows; !(n <= math.MaxInt32) {
		return nil, fmt.Errorf("world: %v×%v bounds at cell size %v need %g cells, more than the %d a grid can index",
			bounds.Width, bounds.Height, cellSize, n, math.MaxInt32)
	}
	return &Grid{
		bounds: bounds,
		cell:   cellSize,
		cols:   int(cols),
		rows:   int(rows),
		cells:  make([][]ident.NodeID, int(cols)*int(rows)),
	}, nil
}

func (g *Grid) cellIndex(p Point) int {
	cx := int(p.X / g.cell)
	cy := int(p.Y / g.cell)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// reach is how many cells a pair scan must look past its own cell:
// ceil(radius/cell), clamped to the grid's extent before the int
// conversion. No two cells are farther apart than the grid is wide, so the
// clamp changes no result, but an unclamped huge radius (a huge kinetic
// skin) would overflow the conversion to a negative reach — dropping every
// cross-cell pair — or walk billions of empty offsets.
func (g *Grid) reach(radius float64) int {
	r := math.Ceil(radius / g.cell)
	if ext := float64(max(g.cols, g.rows)); !(r <= ext) {
		return int(ext)
	}
	return int(r)
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

// ensure grows the dense node slices to cover id.
func (g *Grid) ensure(id ident.NodeID) {
	for int(id) >= len(g.cellOf) {
		g.cellOf = append(g.cellOf, -1)
		g.pos = append(g.pos, Point{})
	}
}

// Upsert places or moves a node. Positions outside the bounds are clamped,
// matching the mobility models which never leave the area. IDs must be
// non-negative.
func (g *Grid) Upsert(id ident.NodeID, p Point) {
	p = g.bounds.Clamp(p)
	g.ensure(id)
	newCell := int32(g.cellIndex(p))
	if old := g.cellOf[id]; old >= 0 {
		if old == newCell {
			g.pos[id] = p
			return
		}
		g.removeFromCell(id, old)
	} else {
		g.count++
	}
	g.cells[newCell] = append(g.cells[newCell], id)
	g.cellOf[id] = newCell
	g.pos[id] = p
}

// Remove deletes a node from the grid. Removing an absent node is a no-op.
func (g *Grid) Remove(id ident.NodeID) {
	if int(id) < 0 || int(id) >= len(g.cellOf) || g.cellOf[id] < 0 {
		return
	}
	g.removeFromCell(id, g.cellOf[id])
	g.cellOf[id] = -1
	g.count--
}

func (g *Grid) removeFromCell(id ident.NodeID, cell int32) {
	members := g.cells[cell]
	for i, m := range members {
		if m == id {
			members[i] = members[len(members)-1]
			g.cells[cell] = members[:len(members)-1]
			return
		}
	}
}

// Position returns a node's current position; ok is false for unknown nodes.
func (g *Grid) Position(id ident.NodeID) (Point, bool) {
	if int(id) < 0 || int(id) >= len(g.cellOf) || g.cellOf[id] < 0 {
		return Point{}, false
	}
	return g.pos[id], true
}

// Len returns the number of nodes currently in the grid.
func (g *Grid) Len() int { return g.count }

// Within appends to dst all nodes other than id within radius of id's
// position, sorted by NodeID for determinism, and returns the extended
// slice. Radius must not exceed the grid's cell size times 1 (the 3×3 block
// guarantee); larger radii fall back to widening the scanned block.
func (g *Grid) Within(dst []ident.NodeID, id ident.NodeID, radius float64) []ident.NodeID {
	center, ok := g.Position(id)
	if !ok {
		return dst
	}
	start := len(dst)
	dst = g.withinPoint(dst, center, radius, id)
	sortIDs(dst[start:])
	return dst
}

// WithinPoint appends all nodes within radius of p, sorted by NodeID.
func (g *Grid) WithinPoint(dst []ident.NodeID, p Point, radius float64) []ident.NodeID {
	start := len(dst)
	dst = g.withinPoint(dst, p, radius, ident.Nobody)
	sortIDs(dst[start:])
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

// Pairs appends every unordered pair of distinct nodes within radius of each
// other, as (lo, hi) with lo < hi, sorted lexicographically. This is the
// contact-detection primitive: the engine diffs consecutive Pairs results to
// derive contact-up and contact-down events.
func (g *Grid) Pairs(dst []Pair, radius float64) []Pair {
	if !(radius > 0) {
		return dst
	}
	start := len(dst)
	r2 := radius * radius
	reach := g.reach(radius)
	for cy := 0; cy < g.rows; cy++ {
		for cx := 0; cx < g.cols; cx++ {
			members := g.cells[cy*g.cols+cx]
			if len(members) == 0 {
				continue
			}
			// Pairs within the same cell.
			for i := 0; i < len(members); i++ {
				for j := i + 1; j < len(members); j++ {
					a, b := members[i], members[j]
					if g.pos[a].Dist2(g.pos[b]) <= r2 {
						dst = append(dst, orderedPair(a, b))
					}
				}
			}
			// Pairs against forward-neighbor cells only, so each cell pair
			// is visited once.
			xHi := min(cx+reach, g.cols-1)
			for y := cy; y <= min(cy+reach, g.rows-1); y++ {
				xLo := max(cx-reach, 0)
				if y == cy {
					xLo = cx + 1
				}
				for x := xLo; x <= xHi; x++ {
					other := g.cells[y*g.cols+x]
					for _, a := range members {
						pa := g.pos[a]
						for _, b := range other {
							if pa.Dist2(g.pos[b]) <= r2 {
								dst = append(dst, orderedPair(a, b))
							}
						}
					}
				}
			}
		}
	}
	sortPairs(dst[start:])
	return dst
}

// Candidates appends every unordered pair within radius+skin of each other,
// as (lo, hi) with lo < hi, sorted lexicographically. This is the kinetic
// contact-detection primitive: the result is a conservative superset of
// Pairs(radius) that stays a superset while no node has moved more than
// skin/2 since the scan, so the engine can filter it with exact distance
// checks for many ticks instead of rescanning the grid (see DESIGN.md
// "Kinetic contact detection"). A negative skin is treated as zero, making
// Candidates(r, 0) ≡ Pairs(r). The widened radius may span more than the
// 3×3 cell block; the scan widens its forward reach accordingly.
func (g *Grid) Candidates(dst []Pair, radius, skin float64) []Pair {
	if skin < 0 {
		skin = 0
	}
	return g.Pairs(dst, radius+skin)
}

// InRange reports whether nodes a and b are both present and within radius
// of each other — the exact per-candidate check of kinetic contact
// detection. It is read-only and safe to call concurrently with other
// reads.
func (g *Grid) InRange(a, b ident.NodeID, radius float64) bool {
	if int(a) < 0 || int(a) >= len(g.cellOf) || g.cellOf[a] < 0 {
		return false
	}
	if int(b) < 0 || int(b) >= len(g.cellOf) || g.cellOf[b] < 0 {
		return false
	}
	return g.pos[a].Dist2(g.pos[b]) <= radius*radius
}

// Pair is an unordered node pair with Lo < Hi.
type Pair struct {
	Lo, Hi ident.NodeID
}

// Less reports whether p precedes q in the canonical lexicographic pair
// order — the order Pairs returns and the engine's sorted-merge contact
// diffing walks.
func (p Pair) Less(q Pair) bool {
	if p.Lo != q.Lo {
		return p.Lo < q.Lo
	}
	return p.Hi < q.Hi
}

func orderedPair(a, b ident.NodeID) Pair {
	if a < b {
		return Pair{Lo: a, Hi: b}
	}
	return Pair{Lo: b, Hi: a}
}

func sortIDs(ids []ident.NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// sortPairs orders pairs lexicographically — the canonical order Pairs
// returns and the engine's contact diffing relies on.
func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
}
