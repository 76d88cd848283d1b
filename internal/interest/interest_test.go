package interest

import (
	"fmt"
	"math"
	"testing"
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/sim"
)

func newTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewTable(DefaultParams(), NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Beta: 0, GrowthRate: 1, PruneBelow: 0},
		{Beta: 2, GrowthRate: 0, PruneBelow: 0},
		{Beta: 2, GrowthRate: 1, PruneBelow: 0.5},
		{Beta: 2, GrowthRate: 1, PruneBelow: -0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate should fail", i)
		}
	}
}

func TestNewTableRequiresInterner(t *testing.T) {
	if _, err := NewTable(DefaultParams(), nil); err == nil {
		t.Error("nil interner must fail")
	}
}

func TestDeclareDirectInitialWeight(t *testing.T) {
	tab := newTable(t)
	tab.DeclareDirect("food", 0)
	if w := tab.Weight("food"); w != InitialWeight {
		t.Errorf("weight = %v, want %v", w, InitialWeight)
	}
	if !tab.HasDirect("food") {
		t.Error("declared interest must be direct")
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d", tab.Len())
	}
}

func TestAcquireStartsAtZeroTransient(t *testing.T) {
	tab := newTable(t)
	tab.Acquire("news", ident.NodeID(5), time.Second)
	e, ok := tab.Row("news")
	if !ok {
		t.Fatal("entry missing")
	}
	if e.Weight != 0 || e.Direct || e.AcquiredFrom != ident.NodeID(5) {
		t.Errorf("entry = %+v", e)
	}
	// Acquiring again is a no-op.
	tab.Acquire("news", ident.NodeID(9), 2*time.Second)
	if e, _ := tab.Row("news"); e.AcquiredFrom != ident.NodeID(5) {
		t.Error("re-acquire overwrote provenance")
	}
}

func TestPromoteTransientToDirect(t *testing.T) {
	tab := newTable(t)
	tab.Acquire("news", ident.NodeID(5), 0)
	tab.SetWeight("news", 0.2)
	tab.DeclareDirect("news", time.Second)
	e, ok := tab.Row("news")
	if !ok || !e.Direct {
		t.Error("promotion failed")
	}
	if e.Weight != InitialWeight {
		t.Errorf("promoted weight = %v, want raised to %v", e.Weight, InitialWeight)
	}
	// Promotion must keep a higher existing weight.
	tab.Acquire("hot", ident.NodeID(5), 0)
	tab.SetWeight("hot", 0.9)
	tab.DeclareDirect("hot", time.Second)
	if w := tab.Weight("hot"); w != 0.9 {
		t.Errorf("promoted weight = %v, want 0.9 kept", w)
	}
}

// TestDecayPaperExample reproduces the worked example from Paper I §2.3:
// direct interest "food coupon" at weight 0.6, β = 2, last shared 5 s ago:
// W_n = (0.6-0.5)/(2·5) + 0.5 = 0.51.
//
// (The thesis text says "= 0.55" but (0.6-0.5)/10 + 0.5 is 0.51 — the
// printed arithmetic drops a factor; we implement the formula as printed,
// so the expected value here is 0.51.)
func TestDecayPaperExample(t *testing.T) {
	tab := newTable(t)
	tab.DeclareDirect("food coupon", 0)
	tab.SetWeight("food coupon", 0.6)
	tab.Decay(5*time.Second, nil)
	want := (0.6-0.5)/(2*5) + 0.5
	if got := tab.Weight("food coupon"); math.Abs(got-want) > 1e-12 {
		t.Errorf("decayed weight = %v, want %v", got, want)
	}
}

func TestDecayDirectApproachesHalf(t *testing.T) {
	tab := newTable(t)
	tab.DeclareDirect("a", 0)
	tab.SetWeight("a", 1.0)
	tab.Decay(1000*time.Second, nil)
	w := tab.Weight("a")
	if w < 0.5 || w > 0.51 {
		t.Errorf("long-decayed direct weight = %v, want ≈0.5 from above", w)
	}
}

func TestDecayTransientApproachesZeroAndPrunes(t *testing.T) {
	tab := newTable(t)
	tab.Acquire("a", 1, 0)
	tab.SetWeight("a", 0.4)
	tab.Decay(1000*time.Second, nil)
	if tab.Has("a") {
		t.Error("deep-decayed transient entry should be pruned")
	}
}

func TestDecayConnectedKeywordHolds(t *testing.T) {
	tab := newTable(t)
	tab.DeclareDirect("a", 0)
	tab.SetWeight("a", 0.9)
	tab.Decay(100*time.Second, map[string]bool{"a": true})
	if w := tab.Weight("a"); w != 0.9 {
		t.Errorf("connected keyword decayed: %v", w)
	}
	// And T_l must refresh, so a subsequent decay measures from now.
	tab.Decay(101*time.Second, nil)
	if w := tab.Weight("a"); w != 0.9 {
		// div = 2*(101-100) = 2 → (0.9-0.5)/2+0.5 = 0.7
		if math.Abs(w-0.7) > 1e-12 {
			t.Errorf("post-refresh decay = %v, want 0.7", w)
		}
	}
}

func TestDecayGuardSubUnitDivisor(t *testing.T) {
	tab := newTable(t)
	tab.DeclareDirect("a", 0)
	tab.SetWeight("a", 0.6)
	// β·ΔT = 2·0.25 = 0.5 < 1 would amplify; the guard keeps the weight.
	tab.Decay(250*time.Millisecond, nil)
	if w := tab.Weight("a"); w != 0.6 {
		t.Errorf("sub-unit divisor changed weight to %v", w)
	}
}

func TestGrowthSharedInterest(t *testing.T) {
	tab := newTable(t)
	tab.DeclareDirect("a", 0)
	view := PeerView{
		Peer:         ident.NodeID(2),
		ConnectedFor: time.Minute,
		Weights:      map[string]PeerWeight{"a": {Weight: 0.5, Direct: true}},
	}
	tab.Grow(time.Minute, []PeerView{view})
	// Δ = 0.5 · (1/60) · 60 / ψ=1 = 0.5 → 1.0 capped at 1.
	if w := tab.Weight("a"); math.Abs(w-1.0) > 1e-12 {
		t.Errorf("grown weight = %v, want 1.0", w)
	}
}

func TestGrowthPsiCases(t *testing.T) {
	tests := []struct {
		local, peer bool
		want        int
	}{
		{true, true, 1},
		{true, false, 2},
		{false, true, 3},
		{false, false, 4},
	}
	for _, tt := range tests {
		if got := psiCase(tt.local, tt.peer); got != tt.want {
			t.Errorf("psiCase(%v, %v) = %d, want %d", tt.local, tt.peer, got, tt.want)
		}
	}
}

func TestGrowthAcquiresUnknownKeywords(t *testing.T) {
	tab := newTable(t)
	view := PeerView{
		Peer:         ident.NodeID(3),
		ConnectedFor: 30 * time.Second,
		Weights:      map[string]PeerWeight{"new": {Weight: 0.8, Direct: true}},
	}
	tab.Grow(time.Minute, []PeerView{view})
	e, ok := tab.Row("new")
	if !ok {
		t.Fatal("unknown keyword not acquired")
	}
	if e.Direct {
		t.Error("acquired interest must be transient")
	}
	if e.AcquiredFrom != ident.NodeID(3) {
		t.Errorf("provenance = %v", e.AcquiredFrom)
	}
	if e.Weight <= 0 {
		t.Error("acquired interest must grow in the same round")
	}
}

func TestWeightsCappedAtMax(t *testing.T) {
	tab := newTable(t)
	tab.DeclareDirect("a", 0)
	tab.SetWeight("a", 0.99)
	view := PeerView{
		Peer:         ident.NodeID(2),
		ConnectedFor: time.Hour,
		Weights:      map[string]PeerWeight{"a": {Weight: 1, Direct: true}},
	}
	tab.Grow(time.Hour, []PeerView{view})
	if w := tab.Weight("a"); w > MaxWeight {
		t.Errorf("weight %v exceeds cap", w)
	}
}

// TestSetWeightRejectsOutOfRange checks that staging a weight outside
// [0, MaxWeight] panics and leaves the row unchanged, so no table ever
// holds a weight above MaxWeight.
func TestSetWeightRejectsOutOfRange(t *testing.T) {
	tab := newTable(t)
	tab.DeclareDirect("a", 0)
	for _, w := range []float64{-0.1, math.Nextafter(MaxWeight, 2), 2, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetWeight(%v) accepted an out-of-range weight", w)
				}
			}()
			tab.SetWeight("a", w)
		}()
		if got := tab.Weight("a"); got != InitialWeight {
			t.Errorf("after SetWeight(%v): weight %v, want it unchanged at %v", w, got, InitialWeight)
		}
	}
	for _, w := range []float64{0, 0.3, MaxWeight} {
		tab.SetWeight("a", w)
		if got := tab.Weight("a"); got != w {
			t.Errorf("SetWeight(%v) stored %v", w, got)
		}
	}
}

func TestSumAndMeanWeights(t *testing.T) {
	tab := newTable(t)
	tab.DeclareDirect("a", 0)
	tab.DeclareDirect("b", 0)
	kws := []string{"a", "b", "missing"}
	if s := tab.SumWeights(kws); math.Abs(s-1.0) > 1e-12 {
		t.Errorf("SumWeights = %v, want 1.0", s)
	}
	if m := tab.MeanWeight(kws); math.Abs(m-1.0/3) > 1e-12 {
		t.Errorf("MeanWeight = %v, want 1/3", m)
	}
	if tab.MeanWeight(nil) != 0 {
		t.Error("MeanWeight(nil) must be 0")
	}
}

func TestIDFastPathsMatchStringPaths(t *testing.T) {
	tab := newTable(t)
	tab.DeclareDirect("a", 0)
	tab.Acquire("b", 1, 0)
	tab.SetWeight("b", 0.3)
	in := tab.Interner()
	kws := []string{"a", "b", "c"}
	ids := in.IDs(nil, kws)
	if got, want := tab.SumWeightsIDs(ids), tab.SumWeights(kws); math.Abs(got-want) > 1e-12 {
		t.Errorf("SumWeightsIDs = %v, SumWeights = %v", got, want)
	}
	if got, want := tab.MeanWeightIDs(ids), tab.MeanWeight(kws); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanWeightIDs = %v, MeanWeight = %v", got, want)
	}
	if !tab.HasDirectAnyID(ids) {
		t.Error("HasDirectAnyID missed the direct interest")
	}
	onlyB := in.IDs(nil, []string{"b", "c"})
	if tab.HasDirectAnyID(onlyB) {
		t.Error("HasDirectAnyID false positive")
	}
}

func TestKeywordsSorted(t *testing.T) {
	tab := newTable(t)
	for _, kw := range []string{"zebra", "apple", "mango"} {
		tab.DeclareDirect(kw, 0)
	}
	kws := tab.Keywords()
	if len(kws) != 3 || kws[0] != "apple" || kws[1] != "mango" || kws[2] != "zebra" {
		t.Errorf("Keywords = %v", kws)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	tab := newTable(t)
	tab.DeclareDirect("a", 0)
	tab.Acquire("b", 2, 0)
	snap := tab.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot size = %d", len(snap))
	}
	if !snap["a"].Direct || snap["a"].Weight != InitialWeight {
		t.Errorf("snapshot[a] = %+v", snap["a"])
	}
	if snap["b"].Direct {
		t.Error("snapshot[b] must be transient")
	}
}

// testClock is a settable interest.Clock for exercising lazy reads.
type testClock struct{ now time.Duration }

func (c *testClock) Now() time.Duration { return c.now }

// TestDeclareDirectPromotionRefreshesAnchor is the regression test for the
// promotion bug: promoting a transient entry must re-anchor T_l at the
// declaration time, otherwise the promoted weight decays against the stale
// transient anchor and the direct bonus collapses toward 0.5 on the very
// next decay.
func TestDeclareDirectPromotionRefreshesAnchor(t *testing.T) {
	tab := newTable(t)
	tab.Acquire("news", ident.NodeID(5), 0)
	tab.SetWeight("news", 0.9)
	promoted := 100 * time.Second
	tab.DeclareDirect("news", promoted)
	e, ok := tab.Row("news")
	if !ok || !e.Direct {
		t.Fatal("promotion failed")
	}
	if e.LastShared != promoted {
		t.Fatalf("promoted LastShared = %v, want re-anchored at %v", e.LastShared, promoted)
	}
	// Decay 5 s after the promotion: div = 2·5 = 10, so the weight must be
	// (0.9-0.5)/10 + 0.5 = 0.54. Against the stale anchor the divisor would
	// be 2·105 = 210 and the bonus would collapse to ≈0.502.
	tab.Decay(105*time.Second, nil)
	if w, want := tab.Weight("news"), (0.9-0.5)/10+0.5; math.Abs(w-want) > 1e-12 {
		t.Errorf("post-promotion decay = %v, want %v", w, want)
	}
}

// TestDeclareDirectPromotionMaterializesLazyWeight: with a clock attached
// the promoted weight must be the currently observed (decayed) value, not
// the stale stored anchor — promotion re-anchors what the user sees.
func TestDeclareDirectPromotionMaterializesLazyWeight(t *testing.T) {
	tab := newTable(t)
	clk := &testClock{}
	tab.SetClock(clk)
	tab.Acquire("news", ident.NodeID(5), 0)
	tab.SetWeight("news", 0.9)
	clk.now = 10 * time.Second
	// Observed transient weight at 10 s: 0.9/(2·10) = 0.045 < 0.5 → the
	// promotion must raise it to InitialWeight, not keep the 0.9 anchor.
	tab.DeclareDirect("news", clk.now)
	e, _ := tab.Row("news")
	if e.Weight != InitialWeight {
		t.Errorf("promoted anchor weight = %v, want %v (materialized then raised)", e.Weight, InitialWeight)
	}
	if e.LastShared != clk.now {
		t.Errorf("promoted LastShared = %v, want %v", e.LastShared, clk.now)
	}
}

// TestDecayReusesPruneScratch is the regression test for the per-call prune
// slice churn: a steady-state Decay — including one that prunes rows — must
// not allocate.
func TestDecayReusesPruneScratch(t *testing.T) {
	tab := newTable(t)
	words := []string{"a", "b", "c", "d"}
	now := time.Duration(0)
	reload := func() {
		for _, kw := range words {
			tab.Acquire(kw, 1, now)
			tab.SetWeight(kw, 0.4)
		}
	}
	// Warm the payload slices, bitsets, and prune scratch once.
	reload()
	now += 1000 * time.Second
	tab.Decay(now, nil)
	if tab.Len() != 0 {
		t.Fatal("warm-up decay did not prune")
	}
	allocs := testing.AllocsPerRun(100, func() {
		reload()
		now += 1000 * time.Second
		tab.Decay(now, nil) // prunes all four rows every run
	})
	if allocs != 0 {
		t.Errorf("Decay allocated %v objects per run, want 0", allocs)
	}
}

// TestPruneAtThresholdKept pins the strict-< prune comparison: a transient
// weight that decays to exactly PruneBelow survives; one ulp of further
// decay evicts it.
func TestPruneAtThresholdKept(t *testing.T) {
	tab := newTable(t) // θ = 0.01
	tab.Acquire("a", 1, 0)
	tab.SetWeight("a", 0.02)
	// div = 2·1 = 2 → 0.02/2 = 0.01 = θ exactly: kept.
	tab.Decay(time.Second, nil)
	if !tab.Has("a") {
		t.Fatal("row at exactly the prune threshold must survive")
	}
	if w := tab.Weight("a"); w != 0.01 {
		t.Fatalf("threshold weight = %v, want 0.01", w)
	}
	// From the re-anchored 0.01, any further decay goes below θ: evicted.
	tab.Decay(2*time.Second, nil)
	if tab.Has("a") {
		t.Error("row below the prune threshold must be evicted")
	}
}

// TestLazyReadsMaterializeWithClock: a clock-attached table's read paths
// (Weight, SumWeightsIDs, Snapshot) return the time-decayed value while the
// stored anchor row stays untouched; the clockless table keeps the
// historical stored-value behaviour.
func TestLazyReadsMaterializeWithClock(t *testing.T) {
	tab := newTable(t)
	clk := &testClock{}
	tab.SetClock(clk)
	tab.DeclareDirect("a", 0)
	tab.SetWeight("a", 0.9)
	clk.now = 5 * time.Second
	want := (0.9-0.5)/(2*5) + 0.5 // one decay step over the 5 s gap
	if w := tab.Weight("a"); math.Abs(w-want) > 1e-12 {
		t.Errorf("lazy Weight = %v, want %v", w, want)
	}
	ids := tab.Interner().IDs(nil, []string{"a"})
	if s := tab.SumWeightsIDs(ids); math.Abs(s-want) > 1e-12 {
		t.Errorf("lazy SumWeightsIDs = %v, want %v", s, want)
	}
	if snap := tab.Snapshot(); math.Abs(snap["a"].Weight-want) > 1e-12 {
		t.Errorf("lazy Snapshot = %v, want %v", snap["a"].Weight, want)
	}
	// The stored anchor is untouched: reads are pure.
	if e, _ := tab.Row("a"); e.Weight != 0.9 || e.LastShared != 0 {
		t.Errorf("anchor mutated by reads: %+v", e)
	}
	// Same weight read at the same instant through the explicit-time API.
	if w := tab.WeightAt("a", clk.now); math.Abs(w-want) > 1e-12 {
		t.Errorf("WeightAt = %v, want %v", w, want)
	}
}

// TestWeightsAlwaysInRange drives a random workload of declares, acquires,
// decays, and growths, checking the [0, 1] invariant throughout.
func TestWeightsAlwaysInRange(t *testing.T) {
	rng := sim.NewRNG(21)
	words := []string{"a", "b", "c", "d", "e", "f"}
	for trial := 0; trial < 20; trial++ {
		tab := newTable(t)
		peer := newTable(t)
		// Tables must share one interner for the exchange path.
		peer.in = tab.in
		now := time.Duration(0)
		for op := 0; op < 300; op++ {
			now += time.Duration(rng.Intn(30)+1) * time.Second
			switch rng.Intn(4) {
			case 0:
				tab.DeclareDirect(words[rng.Intn(len(words))], now)
			case 1:
				peer.DeclareDirect(words[rng.Intn(len(words))], now)
			case 2:
				tab.Decay(now, nil)
			default:
				exchangeRound(tab, peer, 1, 2, []*Table{peer}, []*Table{tab}, now, time.Duration(rng.Intn(60))*time.Second)
			}
			for _, kw := range tab.Keywords() {
				w := tab.Weight(kw)
				if w < 0 || w > MaxWeight {
					t.Fatalf("trial %d op %d: weight %v out of range", trial, op, w)
				}
			}
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
