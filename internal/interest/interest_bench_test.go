package interest

import (
	"strconv"
	"testing"
	"time"

	"dtnsim/internal/sim"
)

func benchTables(b *testing.B, interests int) (*Table, *Table) {
	b.Helper()
	in := NewInterner()
	rng := sim.NewRNG(1)
	clock := &sim.Clock{}
	a, err := NewTable(DefaultParams(), in, clock)
	if err != nil {
		b.Fatal(err)
	}
	t2, err := NewTable(DefaultParams(), in, clock)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < interests; i++ {
		kw := "kw-" + strconv.Itoa(rng.Intn(200))
		if rng.Coin(0.5) {
			a.DeclareDirect(kw, 0)
		} else {
			t2.DeclareDirect(kw, 0)
		}
	}
	return a, t2
}

// BenchmarkExchange measures one pairwise RTSR exchange round (Round, as the
// engine runs it) with Table 5.1-sized tables (20 interests per node).
func BenchmarkExchange(b *testing.B) {
	a, t2 := benchTables(b, 40)
	aPeers, bPeers := []*Table{t2}, []*Table{a}
	now := time.Duration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 10 * time.Second
		Round(a, t2, 1, 2, aPeers, bPeers, now, 10*time.Second)
	}
}

// benchBigTable builds a table holding most of an n-keyword vocabulary:
// a mix of direct rows and well-anchored transient rows, skipping ~30% of
// the vocabulary so two tables built from independent RNG streams overlap
// on roughly half their rows.
func benchBigTable(b *testing.B, in *Interner, n int, seed int64, now time.Duration) *Table {
	b.Helper()
	rng := sim.NewRNG(seed)
	t, err := NewTable(DefaultParams(), in, &sim.Clock{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		kw := "kw-" + strconv.Itoa(i)
		switch {
		case rng.Coin(0.3):
			// absent
		case rng.Coin(0.5):
			t.DeclareDirect(kw, now)
		default:
			t.Acquire(kw, 7, now)
			t.SetWeight(kw, rng.Range(0.2, MaxWeight))
		}
	}
	return t
}

// BenchmarkInterestTable times the full pairwise exchange round over the
// struct-of-arrays table at 1k/10k keyword vocabularies. CI runs it under
// -race -benchtime=1x as a layout-regression smoke test.
func BenchmarkInterestTable(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		n := n
		b.Run("exchange/"+strconv.Itoa(n), func(b *testing.B) {
			in := NewInterner()
			t := benchBigTable(b, in, n, 1, 0)
			peer := benchBigTable(b, in, n, 2, 0)
			aPeers, bPeers := []*Table{peer}, []*Table{t}
			now := time.Duration(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 10 * time.Second
				Round(t, peer, 1, 2, aPeers, bPeers, now, 10*time.Second)
			}
		})
	}
}

// BenchmarkSumWeightsIDs measures the routing rule's weight sum on the
// interned fast path.
func BenchmarkSumWeightsIDs(b *testing.B) {
	a, _ := benchTables(b, 40)
	ids := a.Interner().IDs(nil, []string{"kw-1", "kw-2", "kw-3", "kw-4", "kw-5", "kw-6"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.SumWeightsIDs(ids)
	}
}
