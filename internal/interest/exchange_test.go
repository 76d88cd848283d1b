package interest

import (
	"math"
	"math/bits"
	"testing"
	"time"

	"dtnsim/internal/ident"
)

// exchangeRound runs one pairwise RTSR round on fresh scratch.
func exchangeRound(a, b *Table, aID, bID ident.NodeID, aPeers, bPeers []*Table, now, dt time.Duration) {
	var x Exchange
	x.Run(a, b, aID, bID, aPeers, bPeers, now, dt)
}

// DecayAgainst applies the decay algorithm eagerly at time now, treating as
// "connected" every keyword held by any of the peers (Algorithm 1's "if a
// device with I is connected": shared entries refresh T_l, the rest are
// re-anchored at their materialized weight, pruned when dead). The peers
// list must contain every currently connected device's table, not just the
// exchange partner — a transient interest learned from one neighbour must
// not decay while that neighbour is still attached. It is the eager decay
// phase the equivalence tests lock the lazy round (Exchange.Run) against.
func (t *Table) DecayAgainst(now time.Duration, peers ...*Table) {
	prune := t.pruneScratch[:0]
	for wi, w := range t.present {
		m := w
		for m != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(m))
			m &= m - 1
			shared := false
			for _, peer := range peers {
				if peer.present.Has(int(id)) {
					shared = true
					break
				}
			}
			if shared {
				t.lastShared[id] = now
				continue
			}
			if t.reanchor(id, now) {
				prune = append(prune, id)
			}
		}
	}
	for _, id := range prune {
		t.removeRow(id)
	}
	t.pruneScratch = prune
	if len(prune) > 0 {
		t.maybeCompact()
	}
}

// buildPair creates two tables over one interner with a mix of shared,
// one-sided, direct, and transient interests.
func buildPair(t *testing.T) (*Table, *Table) {
	t.Helper()
	in := NewInterner()
	a, err := NewTable(DefaultParams(), in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTable(DefaultParams(), in)
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
// (Exchange.Run) computes the same weights as the paper's literal
// three-phase sequence (Decay, Snapshot/exchange, Grow) for a pairwise
// contact. The fast tables are lazy — unshared rows keep their
// stored anchor — so the comparison reads them materialized at the
// exchange time, where they must match the eagerly re-anchored slow tables
// exactly.
func TestExchangeGrowMatchesSlowPath(t *testing.T) {
	now := 30 * time.Second
	dt := 10 * time.Second

	fastA, fastB := buildPair(t)
	slowA, slowB := buildPair(t)

	exchangeRound(fastA, fastB, 1, 2, []*Table{fastB}, []*Table{fastA}, now, dt)

	// Literal sequence: decay both against each other's keyword sets,
	// exchange decayed snapshots, grow both.
	slowA.Decay(now, keywordSet(slowB))
	slowB.Decay(now, keywordSet(slowA))
	snapA := slowA.Snapshot()
	snapB := slowB.Snapshot()
	slowA.Grow(now, []PeerView{{Peer: 2, ConnectedFor: dt, Weights: snapB}})
	slowB.Grow(now, []PeerView{{Peer: 1, ConnectedFor: dt, Weights: snapA}})

	for _, kw := range slowA.Keywords() {
		if got, want := fastA.WeightAt(kw, now), slowA.Weight(kw); got != want {
			t.Errorf("a[%q]: fast %v, slow %v", kw, got, want)
		}
	}
	for _, kw := range slowB.Keywords() {
		if got, want := fastB.WeightAt(kw, now), slowB.Weight(kw); got != want {
			t.Errorf("b[%q]: fast %v, slow %v", kw, got, want)
		}
	}
	if fastA.Len() != slowA.Len() || fastB.Len() != slowB.Len() {
		t.Errorf("table sizes diverge: fast (%d, %d), slow (%d, %d)",
			fastA.Len(), fastB.Len(), slowA.Len(), slowB.Len())
	}
}

func keywordSet(t *Table) map[string]bool {
	set := make(map[string]bool)
	for _, kw := range t.Keywords() {
		set[kw] = true
	}
	return set
}

func TestExchangeGrowAcquiresBothWays(t *testing.T) {
	a, b := buildPair(t)
	exchangeRound(a, b, 1, 2, []*Table{b}, []*Table{a}, 30*time.Second, 10*time.Second)
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
	a, _ := NewTable(DefaultParams(), in)
	b, _ := NewTable(DefaultParams(), in)
	for _, kw := range []string{"x", "y", "z"} {
		a.DeclareDirect(kw, 0)
		b.DeclareDirect(kw, 0)
	}
	exchangeRound(a, b, 1, 2, []*Table{b}, []*Table{a}, time.Minute, 20*time.Second)
	for _, kw := range []string{"x", "y", "z"} {
		if a.Weight(kw) != b.Weight(kw) {
			t.Errorf("identical tables diverged on %q: %v vs %v", kw, a.Weight(kw), b.Weight(kw))
		}
	}
}

func TestDecayAgainstMatchesDecay(t *testing.T) {
	a1, b1 := buildPair(t)
	a2, _ := buildPair(t)
	now := 40 * time.Second
	a1.DecayAgainst(now, b1)
	// Multi-peer form: an interest held by any peer must hold its weight.
	multiA, multiB := buildPair(t)
	third, err := NewTable(DefaultParams(), multiA.in)
	if err != nil {
		t.Fatal(err)
	}
	third.DeclareDirect("a-transient", 0)
	multiA.DecayAgainst(now, multiB, third)
	if got := multiA.Weight("a-transient"); got != 0.3 {
		t.Errorf("interest shared by a second peer decayed to %v, want held at 0.3", got)
	}
	a2.Decay(now, map[string]bool{"shared": true, "b-only": true})
	for _, kw := range a2.Keywords() {
		if got, want := a1.Weight(kw), a2.Weight(kw); math.Abs(got-want) > 1e-12 {
			t.Errorf("%q: DecayAgainst %v, Decay %v", kw, got, want)
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
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
	ids := in.IDs(nil, []string{"alpha", "gamma"})
	if len(ids) != 2 || ids[0] != a {
		t.Errorf("IDs = %v", ids)
	}
}
