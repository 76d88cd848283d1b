package interest_test

import (
	"fmt"
	"time"

	"dtnsim/internal/interest"
	"dtnsim/internal/sim"
)

// ExampleTable_Weight reproduces the thesis's worked decay example
// (Paper I §2.3): a direct interest at weight 0.6, β = 2, last shared five
// seconds ago decays to (0.6−0.5)/(2·5) + 0.5 = 0.51. The table stores the
// weight as of its anchor and a read decays it to the clock's time.
func ExampleTable_Weight() {
	clock, err := sim.NewClock(5 * time.Second)
	if err != nil {
		panic(err)
	}
	table, err := interest.NewTable(interest.DefaultParams(), interest.NewInterner(), clock)
	if err != nil {
		panic(err)
	}
	table.DeclareDirect("food coupon", 0)
	table.SetWeight("food coupon", 0.6)

	clock.Advance() // five seconds later
	fmt.Printf("W_n = %.2f\n", table.Weight("food coupon"))
	// Output: W_n = 0.51
}

// ExampleTable_SumWeights shows the ChitChat routing quantity S: the sum
// of a device's interest weights over a message's keywords.
func ExampleTable_SumWeights() {
	clock, err := sim.NewClock(time.Second)
	if err != nil {
		panic(err)
	}
	table, err := interest.NewTable(interest.DefaultParams(), interest.NewInterner(), clock)
	if err != nil {
		panic(err)
	}
	table.DeclareDirect("flood", 0)
	table.DeclareDirect("casualties", 0)

	s := table.SumWeights([]string{"flood", "casualties", "unknown"})
	fmt.Printf("S = %.1f\n", s)
	// Output: S = 1.0
}
