package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/mobility"
	"dtnsim/internal/obs"
	"dtnsim/internal/scenario"
	"dtnsim/internal/sim"
	"dtnsim/internal/world"
)

// This file holds the contact-detection bench runner behind
// `dtnexp -exp bench-contacts`: kinetic (neighbor-list) detection against
// the full per-tick grid scan, over the mobility regimes the optimization
// targets — stationary deployments, slow crowds, and the paper's pedestrian
// Random Waypoint. The measured grid lands in a committed
// BENCH_contacts.json; DESIGN.md "Kinetic contact detection" quotes it.

// ContactBenchPoint is one measured (scenario × kinetic) configuration.
type ContactBenchPoint struct {
	// Scenario names the mobility regime: "stationary" (all pinned),
	// "slow" (0.05–0.3 m/s walkers), or "pedestrian" (the paper's
	// 0.5–1.5 m/s Random Waypoint).
	Scenario string `json:"scenario"`
	Nodes    int    `json:"nodes"`
	// Kinetic is false for the forced-off baseline (ContactSkin < 0).
	Kinetic bool `json:"kinetic"`
	// SkinM is the engine's resolved skin in metres (0 when disabled).
	SkinM float64 `json:"skin_m"`
	// SimSeconds is how much virtual time the measured window covered.
	SimSeconds float64 `json:"sim_seconds"`
	// MsPerSimSecond is wall milliseconds per simulated second.
	MsPerSimSecond float64 `json:"ms_per_sim_second"`
	// BytesPerSimSecond is heap allocation per simulated second.
	BytesPerSimSecond float64 `json:"bytes_per_sim_second"`
	// PhaseMsPerSimSecond maps each tick phase (move, detect, contacts,
	// exchange, events) to wall milliseconds per simulated second over the
	// measured window, taken from the engine's obs.Snapshot timers. The
	// detect column is the one this bench exists for: kinetic-on vs -off
	// points differ there.
	PhaseMsPerSimSecond map[string]float64 `json:"phase_ms_per_sim_second"`
	// CandidateRebuilds counts candidate-list rebuilds over warmup plus the
	// measured window (0 when kinetic detection is off; exactly 1 for
	// stationary scenarios).
	CandidateRebuilds uint64 `json:"candidate_rebuilds"`
	// GoMaxProcs and GoVersion identify the measurement host's schedulable
	// CPU count and toolchain: grids recorded on different machines are not
	// comparable, and these fields make a foreign grid recognisable.
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// ContactBenchGrid is the default measurement grid: each mobility regime at
// 2000 nodes, kinetic on and off.
func ContactBenchGrid() []ContactBenchPoint {
	var grid []ContactBenchPoint
	for _, scenario := range []string{"stationary", "slow", "pedestrian"} {
		for _, kinetic := range []bool{false, true} {
			grid = append(grid, ContactBenchPoint{
				Scenario: scenario, Nodes: 2000, Kinetic: kinetic,
			})
		}
	}
	return grid
}

// contactBenchPopulation swaps the default mobility for the point's regime.
// Models fork from a scenario-independent stream so kinetic-on and -off
// points of the same regime run the exact same trajectories.
func contactBenchPopulation(pt ContactBenchPoint, area world.Rect, seed int64, specs []core.NodeSpec) ([]core.NodeSpec, error) {
	rng := sim.NewRNG(seed).Fork("bench-contacts-" + pt.Scenario)
	for i := range specs {
		switch pt.Scenario {
		case "stationary":
			specs[i].Mobility = &mobility.Stationary{At: world.Point{
				X: rng.Range(0, area.Width), Y: rng.Range(0, area.Height)}}
		case "slow":
			cfg := mobility.DefaultPedestrian(area)
			cfg.MinSpeed, cfg.MaxSpeed = 0.05, 0.3
			w, err := mobility.NewRandomWaypoint(cfg, rng.Fork("slow-"+strconv.Itoa(i)))
			if err != nil {
				return nil, err
			}
			specs[i].Mobility = w
		case "pedestrian":
			// nil keeps the engine's default pedestrian Random Waypoint.
		default:
			return nil, fmt.Errorf("experiment: unknown contact bench scenario %q", pt.Scenario)
		}
	}
	return specs, nil
}

// ContactBenchEngine builds the engine for one grid point: the paper's
// density and behaviour mix with the point's mobility regime swapped in,
// kinetic detection on or off per pt.Kinetic. skin overrides the candidate
// slack in metres for kinetic points (0 = the engine's automatic
// quarter-range); the context's observation spec (WithObservation) is
// applied. Shared by ContactBench and BenchmarkContactDetection.
func ContactBenchEngine(ctx context.Context, pt ContactBenchPoint, skin float64) (*core.Engine, error) {
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = pt.Nodes
	spec.AreaKm2 = float64(pt.Nodes) / 100
	spec.Duration = 24 * time.Hour // never reached; windows driven manually
	spec.SelfishPercent = 20
	spec.MaliciousPercent = 10
	spec.MeanMessageInterval = 30 * time.Minute
	cfg, pop, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	cfg.MessageTTL = 30 * time.Minute
	cfg.ContactSkin = skin
	if !pt.Kinetic {
		cfg.ContactSkin = -1
	}
	pop, err = contactBenchPopulation(pt, cfg.Area, spec.Seed, pop)
	if err != nil {
		return nil, err
	}
	applyObservation(ctx, &cfg)
	return core.NewEngine(cfg, pop)
}

// ContactBench measures each grid point: build at paper density, warm up
// two simulated minutes, then time simSeconds simulated seconds. skin
// overrides the candidate slack in metres for the kinetic points (0 = the
// engine's automatic quarter-range). Each point is measured repeat times
// from a fresh engine and the fastest run is kept: the workload is
// deterministic, so the minimum is the low-noise estimator.
func ContactBench(ctx context.Context, grid []ContactBenchPoint, simSeconds int, skin float64, repeat int, log io.Writer) ([]ContactBenchPoint, error) {
	if simSeconds <= 0 {
		return nil, fmt.Errorf("experiment: bench window must be positive, got %d", simSeconds)
	}
	if skin < 0 {
		return nil, fmt.Errorf("experiment: bench skin must be non-negative, got %v", skin)
	}
	if repeat <= 0 {
		repeat = 1
	}
	out := make([]ContactBenchPoint, 0, len(grid))
	for _, pt := range grid {
		best := pt
		for rep := 0; rep < repeat; rep++ {
			got, err := contactBenchRun(ctx, pt, simSeconds, skin)
			if err != nil {
				return nil, err
			}
			if rep == 0 || got.MsPerSimSecond < best.MsPerSimSecond {
				best = got
			}
		}
		out = append(out, best)
		if log != nil {
			fmt.Fprintf(log, "bench-contacts %s nodes=%d kinetic=%t skin=%.1fm: %.2f ms/sim-s (detect %.2f), %.0f B/sim-s, rebuilds=%d\n",
				best.Scenario, best.Nodes, best.Kinetic, best.SkinM, best.MsPerSimSecond,
				best.PhaseMsPerSimSecond["detect"], best.BytesPerSimSecond, best.CandidateRebuilds)
		}
	}
	return out, nil
}

// contactBenchRun performs one warmup-and-measure pass for a grid point on
// a freshly built engine.
func contactBenchRun(ctx context.Context, pt ContactBenchPoint, simSeconds int, skin float64) (ContactBenchPoint, error) {
	eng, err := ContactBenchEngine(ctx, pt, skin)
	if err != nil {
		return pt, err
	}
	if err := eng.RunFor(ctx, 2*time.Minute); err != nil {
		return pt, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	warm := eng.Snapshot()
	start := time.Now()
	if err := eng.RunFor(ctx, time.Duration(simSeconds)*time.Second); err != nil {
		return pt, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	end := eng.Snapshot()
	window := end.Sub(warm)

	pt.SkinM = eng.ContactSkin()
	pt.SimSeconds = float64(simSeconds)
	pt.MsPerSimSecond = float64(wall) / float64(time.Millisecond) / pt.SimSeconds
	pt.BytesPerSimSecond = float64(after.TotalAlloc-before.TotalAlloc) / pt.SimSeconds
	pt.PhaseMsPerSimSecond = phaseColumns(window, pt.SimSeconds)
	pt.CandidateRebuilds = end.Counter("candidate_rebuilds")
	pt.GoMaxProcs = runtime.GOMAXPROCS(0)
	pt.GoVersion = runtime.Version()
	return pt, nil
}

// phaseColumns renders a measured window's per-phase timers as wall
// milliseconds per simulated second, the unit the bench grid records.
func phaseColumns(window obs.Snapshot, simSeconds float64) map[string]float64 {
	cols := make(map[string]float64, len(window.Phases))
	for _, p := range window.Phases {
		cols[p.Name] = p.Seconds * 1000 / simSeconds
	}
	return cols
}

// WriteContactBench renders the measured grid as the committed
// BENCH_contacts.json format: indented JSON with a stable field order.
func WriteContactBench(w io.Writer, points []ContactBenchPoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(points)
}
