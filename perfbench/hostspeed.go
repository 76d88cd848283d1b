package main

import "time"

// The development host's CPU speed swings by ±25 % over minutes, more than
// any bound the benchmark could allow, so every untraced run also times a
// fixed reference loop before and after its workload and scales its times
// to the speed at which the loop takes refNominal. Scaled times are in
// development-host seconds; the loop does not touch the simulator, so a
// change to the simulator moves scaled and unscaled times alike.

// refNominal is the reference loop's typical time on the development host
// (2 CPUs, go1.24.0).
const refNominal = 700 * time.Millisecond

// refSink keeps the reference loop's result live so the compiler keeps
// the loop.
var refSink uint64

// hostReference times the reference loop: map lookups and integer
// arithmetic, the two kinds of work whose speed tracked the engine's
// best on the development host.
func hostReference() time.Duration {
	const keys = 1 << 20
	m := make(map[int]int, keys)
	for i := 0; i < keys; i++ {
		m[i*7919] = i
	}
	t := time.Now()
	sum := uint64(0)
	for r := 0; r < 3; r++ {
		for i := 0; i < keys; i++ {
			sum += uint64(m[i*7919])
		}
	}
	x := uint64(1)
	for i := 0; i < 200_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	refSink = sum + x
	return time.Since(t)
}
