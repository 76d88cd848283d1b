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
	tab, _ := newClockedTable(t)
	return tab
}

// newClockedTable returns an empty table and the settable clock its reads
// materialize decay at.
func newClockedTable(t *testing.T) (*Table, *testClock) {
	t.Helper()
	clk := &testClock{}
	tab, err := NewTable(DefaultParams(), NewInterner(), clk)
	if err != nil {
		t.Fatal(err)
	}
	return tab, clk
}

// newPeer returns an empty table on tab's interner and clock, as the engine
// builds every node's table.
func newPeer(t *testing.T, tab *Table) *Table {
	t.Helper()
	peer, err := NewTable(tab.params, tab.in, tab.clock)
	if err != nil {
		t.Fatal(err)
	}
	return peer
}

// testClock is a settable interest.Clock.
type testClock struct{ now time.Duration }

func (c *testClock) Now() time.Duration { return c.now }

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0, -1} {
		if err := (Params{GrowthRate: rate}).Validate(); err == nil {
			t.Errorf("growth rate %v: Validate should fail", rate)
		}
	}
}

func TestNewTableRequiresInterner(t *testing.T) {
	if _, err := NewTable(DefaultParams(), nil, &testClock{}); err == nil {
		t.Error("nil interner must fail")
	}
}

func TestNewTableRequiresClock(t *testing.T) {
	if _, err := NewTable(DefaultParams(), NewInterner(), nil); err == nil {
		t.Error("nil clock must fail")
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
	// Promotion must keep a higher observed weight.
	tab.Acquire("hot", ident.NodeID(5), time.Second)
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
	tab, clk := newClockedTable(t)
	tab.DeclareDirect("food coupon", 0)
	tab.SetWeight("food coupon", 0.6)
	clk.now = 5 * time.Second
	var x Exchange
	x.Decay(tab, nil, clk.now)
	want := (0.6-0.5)/(2*5) + 0.5
	if got := tab.Weight("food coupon"); math.Abs(got-want) > 1e-12 {
		t.Errorf("decayed weight = %v, want %v", got, want)
	}
}

func TestDecayDirectApproachesHalf(t *testing.T) {
	tab, clk := newClockedTable(t)
	tab.DeclareDirect("a", 0)
	tab.SetWeight("a", 1.0)
	clk.now = 1000 * time.Second
	var x Exchange
	x.Decay(tab, nil, clk.now)
	w := tab.Weight("a")
	if w < 0.5 || w > 0.51 {
		t.Errorf("long-decayed direct weight = %v, want ≈0.5 from above", w)
	}
}

func TestDecayTransientApproachesZeroAndPrunes(t *testing.T) {
	tab := newTable(t)
	tab.Acquire("a", 1, 0)
	tab.SetWeight("a", 0.4)
	var x Exchange
	if sweeps, evictions := x.Decay(tab, nil, 1000*time.Second); sweeps != 1 || evictions != 1 {
		t.Errorf("decay ran %d sweeps evicting %d rows, want 1 and 1", sweeps, evictions)
	}
	if tab.Has("a") {
		t.Error("deep-decayed transient entry should be pruned")
	}
}

func TestDecayConnectedKeywordHolds(t *testing.T) {
	tab, clk := newClockedTable(t)
	peer := newPeer(t, tab)
	tab.DeclareDirect("a", 0)
	tab.SetWeight("a", 0.9)
	peer.DeclareDirect("a", 0)
	clk.now = 100 * time.Second
	var x Exchange
	x.Decay(tab, []*Table{peer}, clk.now)
	if w := tab.Weight("a"); w != 0.9 {
		t.Errorf("connected keyword decayed: %v", w)
	}
	// And T_l must refresh, so a later read measures from now:
	// div = 2·(101-100) = 2 → (0.9-0.5)/2+0.5 = 0.7.
	clk.now = 101 * time.Second
	if w := tab.Weight("a"); math.Abs(w-0.7) > 1e-12 {
		t.Errorf("post-refresh decay = %v, want 0.7", w)
	}
}

func TestDecayGuardSubUnitDivisor(t *testing.T) {
	tab, clk := newClockedTable(t)
	tab.DeclareDirect("a", 0)
	tab.SetWeight("a", 0.6)
	// β·ΔT = 2·0.25 = 0.5 < 1 would amplify; the guard keeps the weight.
	clk.now = 250 * time.Millisecond
	var x Exchange
	x.Decay(tab, nil, clk.now)
	if w := tab.Weight("a"); w != 0.6 {
		t.Errorf("sub-unit divisor changed weight to %v", w)
	}
}

func TestGrowthSharedInterest(t *testing.T) {
	tab, clk := newClockedTable(t)
	peer := newPeer(t, tab)
	tab.DeclareDirect("a", 0)
	peer.DeclareDirect("a", 0)
	clk.now = time.Minute
	exchangeRound(tab, peer, 1, 2, []*Table{peer}, []*Table{tab}, clk.now, time.Minute)
	// Δ = 0.5 · (1/60) · 60 / ψ=1 = 0.5 → 1.0 capped at 1.
	if w := tab.Weight("a"); math.Abs(w-1.0) > 1e-12 {
		t.Errorf("grown weight = %v, want 1.0", w)
	}
}

// TestGrowthPsiCases pins psiInvIdx's encoding of the paper's ψ cases: for
// each (local direct?, peer direct?) pair, growthDeltaIdx must return x/ψ
// bit for bit.
func TestGrowthPsiCases(t *testing.T) {
	tests := []struct {
		local, peer bool
		psi         float64
	}{
		{true, true, 1},
		{true, false, 2},
		{false, true, 3},
		{false, false, 4},
	}
	for _, tt := range tests {
		var k uint64
		if tt.local {
			k |= 0b10
		}
		if tt.peer {
			k |= 0b01
		}
		for _, x := range []float64{0.1, 1.0 / 3, 0.7} {
			if got, want := growthDeltaIdx(x, k), x/tt.psi; got != want {
				t.Errorf("growthDeltaIdx(%v, local=%v peer=%v) = %v, want %v", x, tt.local, tt.peer, got, want)
			}
		}
	}
}

func TestGrowthAcquiresUnknownKeywords(t *testing.T) {
	tab, clk := newClockedTable(t)
	peer := newPeer(t, tab)
	clk.now = time.Minute
	peer.DeclareDirect("new", clk.now)
	peer.SetWeight("new", 0.8)
	exchangeRound(tab, peer, 1, 3, []*Table{peer}, []*Table{tab}, clk.now, 30*time.Second)
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
	tab, clk := newClockedTable(t)
	peer := newPeer(t, tab)
	tab.DeclareDirect("a", 0)
	tab.SetWeight("a", 0.99)
	peer.DeclareDirect("a", 0)
	peer.SetWeight("a", 1)
	clk.now = time.Hour
	exchangeRound(tab, peer, 1, 2, []*Table{peer}, []*Table{tab}, clk.now, time.Hour)
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
	if m := tab.MeanWeightIDs(tab.Interner().IDs(nil, kws)); math.Abs(m-1.0/3) > 1e-12 {
		t.Errorf("MeanWeightIDs = %v, want 1/3", m)
	}
	if tab.MeanWeightIDs(nil) != 0 {
		t.Error("MeanWeightIDs(nil) must be 0")
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
	if got, want := tab.MeanWeightIDs(ids), tab.SumWeights(kws)/float64(len(kws)); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanWeightIDs = %v, mean of SumWeights = %v", got, want)
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

// TestDeclareDirectPromotionRefreshesAnchor is the regression test for the
// promotion bug: promoting a transient entry must re-anchor T_l at the
// declaration time, otherwise the promoted weight decays against the stale
// transient anchor and the direct bonus collapses toward 0.5 on the very
// next decay.
func TestDeclareDirectPromotionRefreshesAnchor(t *testing.T) {
	tab, clk := newClockedTable(t)
	tab.Acquire("news", ident.NodeID(5), 0)
	promoted := 100 * time.Second
	tab.DeclareDirect("news", promoted)
	e, ok := tab.Row("news")
	if !ok || !e.Direct {
		t.Fatal("promotion failed")
	}
	if e.LastShared != promoted {
		t.Fatalf("promoted LastShared = %v, want re-anchored at %v", e.LastShared, promoted)
	}
	// Stage a direct bonus on the promoted row; SetWeight keeps T_l. Read
	// 5 s after the promotion: div = 2·5 = 10, so the weight must be
	// (0.9-0.5)/10 + 0.5 = 0.54. Against the stale anchor the divisor would
	// be 2·105 = 210 and the bonus would collapse to ≈0.502.
	tab.SetWeight("news", 0.9)
	clk.now = 105 * time.Second
	if w, want := tab.Weight("news"), (0.9-0.5)/10+0.5; math.Abs(w-want) > 1e-12 {
		t.Errorf("post-promotion decay = %v, want %v", w, want)
	}
}

// TestDeclareDirectPromotionMaterializesLazyWeight: the promoted weight
// must be the currently observed (decayed) value, not the stale stored
// anchor — promotion re-anchors what the user sees.
func TestDeclareDirectPromotionMaterializesLazyWeight(t *testing.T) {
	tab, clk := newClockedTable(t)
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

// TestPruneAtThresholdKept pins the strict-< prune comparison: a transient
// weight that decays to exactly PruneBelow survives; one ulp of further
// decay evicts it.
func TestPruneAtThresholdKept(t *testing.T) {
	tab, clk := newClockedTable(t) // θ = 0.01
	tab.Acquire("a", 1, 0)
	tab.SetWeight("a", 0.02)
	// div = 2·1 = 2 → 0.02/2 = 0.01 = θ exactly: kept.
	clk.now = time.Second
	var x Exchange
	x.Decay(tab, nil, clk.now)
	if !tab.Has("a") {
		t.Fatal("row at exactly the prune threshold must survive")
	}
	if w := tab.Weight("a"); w != 0.01 {
		t.Fatalf("threshold weight = %v, want 0.01", w)
	}
	// Any further decay goes below θ: div = 2·2 = 4 → 0.005, evicted.
	clk.now = 2 * time.Second
	x.Decay(tab, nil, clk.now)
	if tab.Has("a") {
		t.Error("row below the prune threshold must be evicted")
	}
}

// TestLazyReadsMaterializeWithClock: a table's read paths (Weight,
// SumWeightsIDs) return the value decayed to its clock's time while the
// stored anchor row stays untouched.
func TestLazyReadsMaterializeWithClock(t *testing.T) {
	tab, clk := newClockedTable(t)
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
		tab, clk := newClockedTable(t)
		peer := newPeer(t, tab)
		var x Exchange
		for op := 0; op < 300; op++ {
			clk.now += time.Duration(rng.Intn(30)+1) * time.Second
			now := clk.now
			switch rng.Intn(4) {
			case 0:
				tab.DeclareDirect(words[rng.Intn(len(words))], now)
			case 1:
				peer.DeclareDirect(words[rng.Intn(len(words))], now)
			case 2:
				x.Decay(tab, nil, now)
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

// TestPruneThenReacquire prunes the high-ID tail of a table and checks that
// the table keeps serving reads and re-acquisitions of the pruned IDs.
func TestPruneThenReacquire(t *testing.T) {
	tab, clk := newClockedTable(t)
	// One durable direct row at interned ID 0, then a long transient tail
	// spanning several bitset words.
	tab.DeclareDirect("kept", 0)
	tab.SetWeight("kept", 0.9)
	for i := 0; i < 300; i++ {
		kw := fmt.Sprintf("tail%d", i)
		tab.Acquire(kw, 1, 0)
		tab.SetWeight(kw, 0.4)
	}
	// Deep decay prunes every transient (direct rows only approach 0.5).
	clk.now = 1000 * time.Second
	var x Exchange
	x.Decay(tab, nil, clk.now)
	if tab.Len() != 1 {
		t.Fatalf("len after deep decay = %d, want 1", tab.Len())
	}
	if !tab.HasDirect("kept") {
		t.Fatal("prune lost the surviving direct row")
	}
	if w := tab.Weight("kept"); w < 0.5 || w > 0.9 {
		t.Errorf("surviving weight = %v, want within (0.5, 0.9]", w)
	}
	if tab.Has("tail299") {
		t.Error("pruned tail row still present")
	}
	tab.Acquire("tail299", 2, 1001*time.Second)
	tab.SetWeight("tail299", 0.7)
	if !tab.Has("tail299") || tab.Weight("tail299") != 0.7 {
		t.Error("re-acquisition of a pruned keyword failed")
	}
	if tab.Len() != 2 {
		t.Errorf("len after re-acquisition = %d, want 2", tab.Len())
	}
}
