package core

import (
	"context"
	"strconv"
	"testing"
	"time"

	"dtnsim/internal/behavior"
	"dtnsim/internal/enrich"
	"dtnsim/internal/mobility"
	"dtnsim/internal/radio"
	"dtnsim/internal/sim"
	"dtnsim/internal/world"
)

// kineticMixConfig builds a small dense scenario for the per-tick
// equivalence property: enough nodes and little enough area that contacts
// churn constantly, with background workload on so the full engine runs.
func kineticMixConfig(t *testing.T, seed int64) Config {
	t.Helper()
	vocab, err := enrich.NewVocabulary(20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Area = world.Rect{Width: 600, Height: 600}
	cfg.Duration = 24 * time.Hour // stepped manually
	cfg.Workload = DefaultWorkload(vocab)
	cfg.Workload.MeanInterval = 2 * time.Minute
	cfg.RatingSampleInterval = 0
	return cfg
}

// mixSpecs assembles a population from the named mobility mix. Models draw
// from the engine-independent RNG stream so the mix itself is deterministic
// per seed.
func mixSpecs(t *testing.T, mix string, nodes int, bounds world.Rect, seed int64) []NodeSpec {
	t.Helper()
	rng := sim.NewRNG(seed).Fork("mix-" + mix)
	newRWP := func(i int, min, max float64) mobility.Model {
		cfg := mobility.DefaultPedestrian(bounds)
		cfg.MinSpeed, cfg.MaxSpeed = min, max
		w, err := mobility.NewRandomWaypoint(cfg, rng.Fork("walk-"+strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	specs := make([]NodeSpec, nodes)
	for i := range specs {
		specs[i].Profile = behavior.CooperativeProfile()
		switch mix {
		case "stationary-heavy":
			if rng.Coin(0.7) {
				specs[i].Mobility = &mobility.Stationary{At: world.Point{
					X: rng.Range(0, bounds.Width), Y: rng.Range(0, bounds.Height)}}
			} else {
				specs[i].Mobility = newRWP(i, 0.5, 1.5)
			}
		case "pedestrian":
			specs[i].Mobility = newRWP(i, 0.5, 1.5)
		case "fast-mixed":
			switch rng.Intn(3) {
			case 0:
				specs[i].Mobility = newRWP(i, 2, 6)
			case 1:
				specs[i].Mobility = newRWP(i, 0.5, 1.5)
			default:
				specs[i].Mobility = &mobility.Stationary{At: world.Point{
					X: rng.Range(0, bounds.Width), Y: rng.Range(0, bounds.Height)}}
			}
		case "waypoints":
			if rng.Coin(0.8) {
				specs[i].Mobility = newRWP(i, 0.5, 1.5)
				break
			}
			// A node teleporting to a fresh pin every 50 s.
			pins := make([]mobility.TimedPoint, 25)
			for k := range pins {
				pins[k] = mobility.TimedPoint{T: time.Duration(k) * 50 * time.Second, P: world.Point{
					X: rng.Range(0, bounds.Width), Y: rng.Range(0, bounds.Height)}}
			}
			m, err := mobility.NewWaypoints(pins)
			if err != nil {
				t.Fatal(err)
			}
			specs[i].Mobility = m
		default:
			t.Fatalf("unknown mix %q", mix)
		}
	}
	return specs
}

// TestKineticMatchesFullDetection is the tentpole's property test: stepping
// the engine tick by tick over random mobility mixes, the kinetic
// candidate-filter pair set (what updateContacts consumed, left in
// pairScratch) must equal a fresh full Grid.Pairs scan at every single
// tick — incremental ≡ full detection, over thousands of ticks, across
// skins and the disabled fallback. The skin is always a quarter of the
// radio range in a real run; the cases that widen or shrink it set kinSkin
// directly before the first step.
func TestKineticMatchesFullDetection(t *testing.T) {
	const nodes = 40
	cases := []struct {
		mix     string
		seed    int64
		skin    float64 // kinSkin override in metres; 0 keeps the engine's
		kinetic bool    // expected kinetic state as built (kinSkin > 0)
		ticks   int
	}{
		{mix: "stationary-heavy", seed: 1, skin: 0, kinetic: true, ticks: 1200},
		{mix: "pedestrian", seed: 2, skin: 0, kinetic: true, ticks: 1200},
		{mix: "pedestrian", seed: 3, skin: 60, kinetic: true, ticks: 1200},
		// A tiny skin (just above one tick's 2·maxSpeed·step closing
		// displacement) rebuilds near-constantly — the degenerate end of
		// the skin trade-off must stay exact too.
		{mix: "pedestrian", seed: 4, skin: 4, kinetic: true, ticks: 1000},
		{mix: "fast-mixed", seed: 5, skin: 0, kinetic: true, ticks: 1200},
		// A waypoint follower lacks a speed bound: the engine must fall
		// back to the full per-tick scan wholesale, and equivalence still
		// holds.
		{mix: "waypoints", seed: 6, skin: 0, kinetic: false, ticks: 1000},
		// The other degenerate end: a skin far beyond the world makes every
		// pair a candidate forever. Its cell reach must clamp to the grid,
		// not overflow, or cross-cell candidates vanish.
		{mix: "pedestrian", seed: 7, skin: 1e300, kinetic: true, ticks: 300},
	}
	for _, tc := range cases {
		tc := tc
		name := tc.mix + "/" + map[bool]string{true: "kinetic", false: "fallback"}[tc.kinetic]
		t.Run(name, func(t *testing.T) {
			cfg := kineticMixConfig(t, tc.seed)
			specs := mixSpecs(t, tc.mix, nodes, cfg.Area, tc.seed)
			eng, err := NewEngine(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			if got := eng.kinSkin > 0; got != tc.kinetic {
				t.Fatalf("kinetic = %v, want %v", got, tc.kinetic)
			}
			if tc.skin > 0 {
				eng.kinSkin = tc.skin
			}
			ctx := context.Background()
			var want []world.Pair
			for tick := 0; tick < tc.ticks; tick++ {
				if err := eng.RunFor(ctx, cfg.Step); err != nil {
					t.Fatal(err)
				}
				got := eng.pairScratch
				want = eng.grid.Pairs(want[:0], radio.Range)
				if len(got) != len(want) {
					t.Fatalf("tick %d: %d pairs, want %d (got %v, want %v)",
						tick, len(got), len(want), got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("tick %d: pair %d = %v, want %v", tick, i, got[i], want[i])
					}
				}
			}
			r := eng.Snapshot().Counter("candidate_rebuilds")
			if tc.kinetic {
				if r == 0 {
					t.Fatal("kinetic path never rebuilt its candidate list")
				}
				if r >= uint64(tc.ticks) {
					t.Fatalf("kinetic path rebuilt every tick (%d rebuilds over %d ticks) — skin not amortising", r, tc.ticks)
				}
			} else if r != 0 {
				t.Fatalf("fallback path recorded %d candidate rebuilds", r)
			}
		})
	}
}

// TestKineticStationaryScansOnce pins the optimization's best case: an
// all-stationary network accumulates no displacement, so the candidate list
// is built exactly once for the whole run.
func TestKineticStationaryScansOnce(t *testing.T) {
	cfg := kineticMixConfig(t, 12)
	rng := sim.NewRNG(12).Fork("pins")
	specs := make([]NodeSpec, 30)
	for i := range specs {
		specs[i].Profile = behavior.CooperativeProfile()
		specs[i].Mobility = &mobility.Stationary{At: world.Point{
			X: rng.Range(0, cfg.Area.Width), Y: rng.Range(0, cfg.Area.Height)}}
	}
	eng, err := NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if eng.kinSkin <= 0 {
		t.Fatal("all-stationary network must run kinetically")
	}
	if err := eng.RunFor(context.Background(), 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if r := eng.Snapshot().Counter("candidate_rebuilds"); r != 1 {
		t.Fatalf("stationary run rebuilt %d times, want exactly 1", r)
	}
	got := eng.pairScratch
	want := eng.grid.Pairs(nil, radio.Range)
	if len(got) != len(want) {
		t.Fatalf("stationary pair set = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("stationary pair %d = %v, want %v", i, got[i], want[i])
		}
	}
}
