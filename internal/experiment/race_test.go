//go:build race

package experiment

// raceEnabled reports whether the test binary runs under the race
// detector, whose slowdown puts paper-scale runs out of reach.
const raceEnabled = true
