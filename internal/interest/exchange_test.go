package interest

import (
	"testing"
	"time"

	"dtnsim/internal/ident"
)

// buildPair creates two tables over one interner with a mix of shared,
// one-sided, direct, and transient interests.
func buildPair(t *testing.T) (*Table, *Table) {
	t.Helper()
	in := NewInterner()
	a, err := NewTable(DefaultParams(), in, &testClock{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTable(DefaultParams(), in, &testClock{})
	if err != nil {
		t.Fatal(err)
	}
	a.DeclareDirect("shared", 0)
	b.DeclareDirect("shared", 0)
	a.DeclareDirect("a-only", 0)
	b.DeclareDirect("b-only", 0)
	a.Acquire("a-transient", 9, 0)
	a.SetWeight("a-transient", 0.3)
	return a, b
}

// TestExchangeGrowMatchesSlowPath verifies the in-place exchange round
// (Round) computes the same weights as the paper's literal
// three-phase sequence (DecayAgainst, Snapshot/exchange, Grow) for a
// pairwise contact. The fast tables are lazy — unshared rows keep their
// stored anchor — so the comparison reads them materialized at the
// exchange time, where they must match the eagerly re-anchored slow tables
// exactly.
func TestExchangeGrowMatchesSlowPath(t *testing.T) {
	now := 30 * time.Second
	dt := 10 * time.Second

	fastA, fastB := buildPair(t)
	slowA, slowB := buildPair(t)

	Round(fastA, fastB, 1, 2, []*Table{fastB}, []*Table{fastA}, now, dt)

	// Literal sequence: decay both against each other (a first, so b's
	// decay sees a's post-prune rows), exchange decayed snapshots, grow
	// both.
	slowA.DecayAgainst(now, slowB)
	slowB.DecayAgainst(now, slowA)
	snapA := slowA.Snapshot()
	snapB := slowB.Snapshot()
	slowA.Grow(now, []PeerView{{Peer: 2, ConnectedFor: dt, Weights: snapB}})
	slowB.Grow(now, []PeerView{{Peer: 1, ConnectedFor: dt, Weights: snapA}})

	for _, kw := range slowA.Keywords() {
		if got, want := fastA.WeightAt(kw, now), slowA.WeightAt(kw, now); got != want {
			t.Errorf("a[%q]: fast %v, slow %v", kw, got, want)
		}
	}
	for _, kw := range slowB.Keywords() {
		if got, want := fastB.WeightAt(kw, now), slowB.WeightAt(kw, now); got != want {
			t.Errorf("b[%q]: fast %v, slow %v", kw, got, want)
		}
	}
	if fastA.Len() != slowA.Len() || fastB.Len() != slowB.Len() {
		t.Errorf("table sizes diverge: fast (%d, %d), slow (%d, %d)",
			fastA.Len(), fastB.Len(), slowA.Len(), slowB.Len())
	}
}

func TestExchangeGrowAcquiresBothWays(t *testing.T) {
	a, b := buildPair(t)
	Round(a, b, 1, 2, []*Table{b}, []*Table{a}, 30*time.Second, 10*time.Second)
	if !a.Has("b-only") {
		t.Error("a did not acquire b's interest")
	}
	if !b.Has("a-only") {
		t.Error("b did not acquire a's interest")
	}
	if e, ok := a.Row("b-only"); !ok || e.Direct || e.AcquiredFrom != ident.NodeID(2) {
		t.Errorf("acquired entry wrong: %+v", e)
	}
}

func TestExchangeGrowSymmetricForIdenticalTables(t *testing.T) {
	in := NewInterner()
	clk := &testClock{now: time.Minute}
	a, _ := NewTable(DefaultParams(), in, clk)
	b, _ := NewTable(DefaultParams(), in, clk)
	for _, kw := range []string{"x", "y", "z"} {
		a.DeclareDirect(kw, 0)
		b.DeclareDirect(kw, 0)
	}
	Round(a, b, 1, 2, []*Table{b}, []*Table{a}, time.Minute, 20*time.Second)
	for _, kw := range []string{"x", "y", "z"} {
		if a.Weight(kw) != b.Weight(kw) {
			t.Errorf("identical tables diverged on %q: %v vs %v", kw, a.Weight(kw), b.Weight(kw))
		}
	}
}

func TestInternerBasics(t *testing.T) {
	in := NewInterner()
	a := in.ID("alpha")
	b := in.ID("beta")
	if a == b {
		t.Error("distinct words must get distinct IDs")
	}
	if in.ID("alpha") != a {
		t.Error("re-interning must be stable")
	}
	if in.Word(a) != "alpha" {
		t.Error("Word round trip failed")
	}
	if _, ok := in.Lookup("gamma"); ok {
		t.Error("Lookup must not assign")
	}
	if len(in.words) != 2 {
		t.Errorf("%d words interned, want 2", len(in.words))
	}
	ids := in.IDs(nil, []string{"alpha", "gamma"})
	if len(ids) != 2 || ids[0] != a {
		t.Errorf("IDs = %v", ids)
	}
}
