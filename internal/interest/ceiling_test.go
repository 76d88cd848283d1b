package interest

import (
	"fmt"
	"math"
	"testing"
	"time"

	"dtnsim/internal/bitset"
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
// premises (ceilingTable) and checks that AtCeilingIDs never accepts a tag
// set whose weight sum is not exactly its ceiling k = len(ids).
func checkCeilingCase(t testing.TB, seed int64, c *ceilingCounts) {
	rng := sim.NewRNG(seed)
	tab, kws, age := ceilingTable(t, rng, false)
	ids := make([]int32, 0, len(kws))
	for _, i := range rng.Perm(len(kws))[:rng.Intn(len(kws))+1] {
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

// ceilingTable builds one seeded table around the bit ceiling's premises
// and sets its clock to the read instant; it returns the table, the pool
// of keywords its rows and tag sets draw from, and the read's age after
// the last refresh. The table mixes direct and transient rows at
// MaxWeight, one ulp below it and elsewhere; rows a peer holds at the last
// refresh and rows it released or never held; and reads from the refresh
// instant itself, just inside freshFor, at it, and past it. With split,
// the second half of the pool is interned past 64 fillers, so its IDs
// fall in the second word of every bitset.
func ceilingTable(t testing.TB, rng *sim.RNG, split bool) (*Table, []string, time.Duration) {
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
		if split && i == pool/2 {
			for f := 0; f < 64; f++ {
				tab.in.ID(fmt.Sprintf("filler%d", f))
			}
		}
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
	return tab, kws, age
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

// ceilingSetCounts tallies what the set-ceiling cases exercised.
type ceilingSetCounts struct {
	// accepted counts the unions AtCeilingSet accepted.
	accepted int
	// freshRefused counts the unions it refused at a read younger than
	// freshFor, where a member's held or sat bit decides.
	freshRefused int
	// wide counts the accepted unions whose members span more than one
	// word of the bitset.
	wide int
}

// checkCeilingSetCase builds one seeded table (ceilingTable) and a union U
// of tag IDs, and checks AtCeilingSet(U) against the ID-list test over U's
// members. When it holds, every random S ⊆ U, in random order, must
// satisfy AtCeilingIDs(S) and sum to exactly len(S). Half the tables split
// their keywords over two bitset words, so the word loop covers more than
// one.
func checkCeilingSetCase(t testing.TB, seed int64, c *ceilingSetCounts) {
	rng := sim.NewRNG(seed)
	tab, kws, age := ceilingTable(t, rng, seed%2 == 0)
	var union bitset.Set
	var members []int32
	for _, i := range rng.Perm(len(kws))[:rng.Intn(len(kws))+1] {
		id := tab.in.ID(kws[i])
		if !union.Has(int(id)) {
			union.Add(int(id))
			members = append(members, id)
		}
	}
	got := tab.AtCeilingSet(union)
	if want := tab.AtCeilingIDs(members); got != want {
		t.Fatalf("seed %d: AtCeilingSet = %v, AtCeilingIDs over the same %d IDs = %v", seed, got, len(members), want)
	}
	if !got {
		if age < freshFor {
			c.freshRefused++
		}
		return
	}
	c.accepted++
	if len(union) > 1 {
		c.wide++
	}
	for trial := 0; trial < 8; trial++ {
		var sub []int32
		for _, i := range rng.Perm(len(members)) {
			if rng.Coin(0.5) {
				sub = append(sub, members[i])
			}
		}
		if !tab.AtCeilingIDs(sub) {
			t.Fatalf("seed %d: AtCeilingSet holds over %v but AtCeilingIDs(%v) does not", seed, members, sub)
		}
		if sum, k := tab.SumWeightsIDs(sub), float64(len(sub)); sum != k {
			t.Fatalf("seed %d: AtCeilingSet holds over %v but S = %v over the %v tags %v", seed, members, sum, k, sub)
		}
	}
}

// TestAtCeilingSetImpliesEveryMember checks the set ceiling over 20 000
// seeded tables: it agrees with AtCeilingIDs over the union's members, and
// whenever it holds, every subset of the union sums to exactly its size.
// The draws must include accepted unions, unions spanning two words, and
// unions refused at a fresh read.
func TestAtCeilingSetImpliesEveryMember(t *testing.T) {
	var c ceilingSetCounts
	for seed := int64(0); seed < 20000; seed++ {
		checkCeilingSetCase(t, seed, &c)
	}
	if c.accepted == 0 || c.wide == 0 || c.freshRefused == 0 {
		t.Fatalf("%d accepted, %d of them over two words, %d refused at a fresh read: each must occur",
			c.accepted, c.wide, c.freshRefused)
	}
	t.Logf("%d accepted, %d of them over two words, %d refused at a fresh read", c.accepted, c.wide, c.freshRefused)
}

// FuzzAtCeilingSet runs the set-ceiling check on fuzzed seeds.
func FuzzAtCeilingSet(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkCeilingSetCase(t, seed, &ceilingSetCounts{})
	})
}
