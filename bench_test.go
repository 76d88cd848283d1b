// Package dtnsim_test holds the engine microbenchmarks: warm-window costs
// of one simulated second at and beyond paper scale, of the contact-round
// exchange path, and of contact churn. They are the benchmarks CI runs
// under the race detector. Whole-run engine and figure-suite cost is
// measured by the repository benchmark in perfbench/, and the paper's
// tables and figures are regenerated by cmd/dtnexp:
// `go run ./cmd/dtnexp -exp all -profile paper`.
package dtnsim_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/scenario"
)

// BenchmarkEngineScale measures raw kernel throughput at and beyond paper
// scale: 500, 2000, and 5000 nodes at the paper's 100 nodes/km² density,
// with TTL expiry and rating sampling switched on so every periodic
// subsystem is in the loop. Each iteration retires one simulated second, so
// the headline ns/op reads directly as nanoseconds per simulated second.
// This is a warm-window microbenchmark; the repository benchmark in
// perfbench/ measures whole runs of the paper's workloads.
//
// -short trims the grid to {500, 2000} nodes so the CI bench smoke stays
// fast; the full grid is for local measurement runs.
func BenchmarkEngineScale(b *testing.B) {
	for _, nodes := range []int{500, 2000, 5000} {
		if testing.Short() && nodes > 2000 {
			continue
		}
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			spec := scenario.Default(core.SchemeIncentive)
			spec.Nodes = nodes
			spec.AreaKm2 = float64(nodes) / 100
			spec.Duration = 24 * time.Hour // never reached; steps driven manually
			spec.SelfishPercent = 20
			spec.MaliciousPercent = 10
			spec.MeanMessageInterval = 30 * time.Minute
			cfg, pop, err := scenario.Build(spec)
			if err != nil {
				b.Fatal(err)
			}
			cfg.MessageTTL = 30 * time.Minute
			eng, err := core.NewEngine(cfg, pop)
			if err != nil {
				b.Fatal(err)
			}
			// Warm up: populate buffers, contacts, and the periodic schedule.
			if err := eng.RunFor(context.Background(), 2*time.Minute); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.RunFor(context.Background(), time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExchangeRounds isolates the contact-round exchange path (see
// DESIGN.md "Exchange rounds"): a dense 2000-node workload where many
// contact rounds come due on the same tick. Each iteration retires one
// simulated second, so ns/op reads as nanoseconds per simulated second;
// b.ReportAllocs pins the alloc-free scratch reuse in the exchange plan,
// the peer-table gather and the FIFO offer sort.
//
// -short trims the workload to 500 nodes so the CI race bench smoke
// (-benchtime=1x) touches the exchange path cheaply.
func BenchmarkExchangeRounds(b *testing.B) {
	nodes := 2000
	if testing.Short() {
		nodes = 500
	}
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = nodes
	spec.AreaKm2 = float64(nodes) / 100
	spec.Duration = 24 * time.Hour // never reached; steps driven manually
	spec.SelfishPercent = 20
	spec.MeanMessageInterval = 30 * time.Minute
	cfg, pop, err := scenario.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(cfg, pop)
	if err != nil {
		b.Fatal(err)
	}
	// Warm up: populate tables, contacts, and due exchange rounds.
	if err := eng.RunFor(context.Background(), 2*time.Minute); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.RunFor(context.Background(), time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContactChurn isolates the merge-diff contact lifecycle (see
// DESIGN.md "Contact lifecycle arena & merge-diff") under sustained churn:
// a waypoint crowd packed to 4× the paper's density, so every tick raises
// and lapses many contacts at once and the two-pointer diff, the targeted
// contactList compaction, and the arena free lists all stay hot. Each
// iteration retires one simulated second, so ns/op reads as nanoseconds
// per simulated second; b.ReportAllocs tracks the lifecycle arena's
// steady-state allocation behavior, with the churn counters reported so a
// regression in diffing shows up as fewer transitions, not just different
// timing.
//
// -short trims the crowd to 500 nodes so the CI race bench smoke exercises
// the diff path cheaply.
func BenchmarkContactChurn(b *testing.B) {
	nodes := 2000
	if testing.Short() {
		nodes = 500
	}
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = nodes
	spec.AreaKm2 = float64(nodes) / 400 // 4× paper density: constant churn
	spec.Duration = 24 * time.Hour      // never reached; steps driven manually
	spec.SelfishPercent = 20
	spec.MeanMessageInterval = 30 * time.Minute
	cfg, pop, err := scenario.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.NewEngine(cfg, pop)
	if err != nil {
		b.Fatal(err)
	}
	// Warm up: populate contacts, the arena pools, and the periodic
	// schedule.
	if err := eng.RunFor(context.Background(), 2*time.Minute); err != nil {
		b.Fatal(err)
	}
	before := eng.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.RunFor(context.Background(), time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snap := eng.Snapshot().Sub(before)
	b.ReportMetric(float64(snap.Counter("contacts_up"))/float64(b.N), "ups/sim-s")
	b.ReportMetric(float64(snap.Counter("contacts_down"))/float64(b.N), "downs/sim-s")
}
