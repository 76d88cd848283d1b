package interest

import (
	"fmt"
	"math"
	"testing"
	"time"

	"dtnsim/internal/sim"
)

// ceilingCounts tallies what the bit-ceiling cases exercised.
type ceilingCounts struct {
	// atCeiling counts the cases AtCeilingIDs accepted.
	atCeiling int
	// staleHold counts the cases with every row held and sat whose refresh
	// had aged to freshFor or past it, where the freshness test decides.
	staleHold int
	// unheldBelow counts the fresh cases with every row sat, some row
	// unheld and the sum below k, where the held bit decides.
	unheldBelow int
}

// checkCeilingCase builds one seeded table around the bit ceiling's
// premises and checks that AtCeilingIDs never accepts a tag set whose
// weight sum is not exactly its ceiling k = len(ids). The table mixes
// direct and transient rows at MaxWeight, one ulp below it and elsewhere;
// rows a peer holds at the last refresh and rows it released or never held;
// and reads from the refresh instant itself, just inside freshFor, at it,
// and past it.
func checkCeilingCase(t testing.TB, seed int64, c *ceilingCounts) {
	rng := sim.NewRNG(seed)
	below := math.Nextafter(MaxWeight, 0)
	weights := []float64{MaxWeight, MaxWeight, MaxWeight, below, InitialWeight}
	clk := &testClock{}
	tab, err := NewTable(DefaultParams(), NewInterner(), clk)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewTable(tab.params, tab.in, clk)
	if err != nil {
		t.Fatal(err)
	}
	const pool = 6
	kws := make([]string, pool)
	for i := range kws {
		kws[i] = fmt.Sprintf("kw%d", i)
		born := time.Duration(rng.Intn(3)) * time.Second
		switch rng.Intn(8) {
		case 0:
			// Absent: the sum reads zero for it.
		case 1, 2:
			tab.DeclareDirect(kws[i], born)
		default:
			tab.Acquire(kws[i], 9, born)
		}
	}
	// Two refreshes against different peer sets: a row held by the first
	// and not the second is released, anchored at the first refresh.
	first := 3*time.Second + time.Duration(rng.Intn(2000))*time.Millisecond
	last := first + time.Duration(rng.Intn(3))*time.Second
	for _, at := range []time.Duration{first, last} {
		peer = mustEmpty(t, peer)
		for _, kw := range kws {
			if rng.Intn(4) != 0 {
				peer.Acquire(kw, 8, at)
			}
		}
		Decay(tab, []*Table{peer}, at)
	}
	for _, kw := range kws {
		if tab.Has(kw) {
			w := weights[rng.Intn(len(weights))]
			if rng.Intn(6) == 0 {
				w = rng.Float64()
			}
			tab.SetWeight(kw, w)
		}
	}
	ages := []time.Duration{0, time.Nanosecond, freshFor - time.Nanosecond, freshFor, freshFor + time.Nanosecond}
	age := ages[rng.Intn(len(ages))]
	if rng.Intn(4) == 0 {
		age = time.Duration(rng.Intn(3000)) * time.Millisecond
	}
	clk.now = last + age

	ids := make([]int32, 0, pool)
	for _, i := range rng.Perm(pool)[:rng.Intn(pool)+1] {
		ids = append(ids, tab.in.ID(kws[i]))
	}
	k := float64(len(ids))
	sum := tab.SumWeightsIDs(ids)
	allSat, allHeld := true, true
	for _, id := range ids {
		allSat = allSat && tab.sat.Has(int(id))
		allHeld = allHeld && tab.held.Has(int(id))
	}
	if tab.AtCeilingIDs(ids) {
		c.atCeiling++
		if sum != k {
			t.Fatalf("seed %d: AtCeilingIDs holds but S = %v over k = %v tags (read %v after the refresh)", seed, sum, k, age)
		}
	}
	switch {
	case allSat && allHeld && age >= freshFor:
		c.staleHold++
	case allSat && !allHeld && age < freshFor && sum < k:
		c.unheldBelow++
	}
}

// mustEmpty returns a fresh table on p's interner and clock.
func mustEmpty(t testing.TB, p *Table) *Table {
	n, err := NewTable(p.params, p.in, p.clock)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestAtCeilingIDsImpliesSumAtCeiling checks the bit ceiling against the
// float sum over 20 000 seeded tables: whenever AtCeilingIDs holds,
// SumWeightsIDs is exactly k, so routing's early RoleNone never replaces a
// sum below k. The draws must include tables where only the freshness test
// and only the held bit tell the ceiling apart from a sum below it, so
// dropping either check fails here.
func TestAtCeilingIDsImpliesSumAtCeiling(t *testing.T) {
	var c ceilingCounts
	for seed := int64(0); seed < 20000; seed++ {
		checkCeilingCase(t, seed, &c)
	}
	if c.atCeiling == 0 || c.staleHold == 0 || c.unheldBelow == 0 {
		t.Fatalf("%d accepted, %d held and sat but stale, %d fresh with an unheld row below: each must occur",
			c.atCeiling, c.staleHold, c.unheldBelow)
	}
	t.Logf("%d accepted, %d held and sat but stale, %d fresh with an unheld row below",
		c.atCeiling, c.staleHold, c.unheldBelow)
}

// FuzzAtCeilingIDs runs the bit-ceiling check on fuzzed seeds.
func FuzzAtCeilingIDs(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkCeilingCase(t, seed, &ceilingCounts{})
	})
}
