// Package dtnsim_test holds the benchmark harness: one testing.B benchmark
// per table and figure in the paper's evaluation (Paper I §5), plus the
// ablation and router-comparison benches DESIGN.md calls out. Each
// benchmark iteration regenerates the artifact at the bench profile (60
// nodes / 0.6 km² / 2 h — the paper's 100 nodes/km² density at laptop
// scale; figure-axis sweeps are thinned where noted) and reports the
// headline metric via b.ReportMetric, so `go test -bench=.` doubles as a
// shape check against the paper.
//
// Full-scale regeneration (Table 5.1's 500 nodes / 5 km² / 24 h, five
// seeds) is cmd/dtnexp's job: `go run ./cmd/dtnexp -exp all -profile paper`.
package dtnsim_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/experiment"
	"dtnsim/internal/scenario"
)

func benchProfile() experiment.Profile { return experiment.BenchProfile }

// BenchmarkTable51Defaults regenerates Table 5.1 (the simulation-parameter
// table) and verifies the default configuration builds a paper-scale
// network spec.
func BenchmarkTable51Defaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiment.Table51(benchProfile())
		if len(tab.Rows) != 11 {
			b.Fatalf("Table 5.1 rows = %d", len(tab.Rows))
		}
		spec := scenario.Default(core.SchemeIncentive)
		if _, _, err := scenario.Build(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig51MDRVsSelfish regenerates Figure 5.1 (MDR vs % selfish
// nodes, ChitChat vs incentive) over a thinned selfish axis {0, 40, 80}.
func BenchmarkFig51MDRVsSelfish(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		points, err := experiment.SelfishSweep(ctx, benchProfile(), []int{0, 40, 80})
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, points)
	}
}

// BenchmarkFig52TrafficReduction regenerates Figure 5.2 (% relay traffic
// reduced over ChitChat) over the same thinned axis.
func BenchmarkFig52TrafficReduction(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		points, err := experiment.SelfishSweep(ctx, benchProfile(), []int{0, 40, 80})
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, p := range points {
			sum += p.TrafficReduction()
		}
		b.ReportMetric(sum/float64(len(points)), "mean-reduced-%")
	}
}

// BenchmarkFig53InitialTokens regenerates Figure 5.3 (MDR vs the initial
// token allowance at several selfish percentages).
func BenchmarkFig53InitialTokens(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, points, err := experiment.Fig53(ctx, benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: MDR gain from quadrupling the allowance at 20% selfish.
		var low, high float64
		for _, p := range points {
			if p.SelfishPercent != 20 {
				continue
			}
			switch p.InitialTokens {
			case 50:
				low = p.Incentive.MDR
			case 400:
				high = p.Incentive.MDR
			}
		}
		b.ReportMetric(high-low, "mdr-gain-50to400")
	}
}

// BenchmarkFig54MaliciousRecognition regenerates Figure 5.4 (average rating
// of malicious nodes held by honest nodes over time, 10–40% malicious).
func BenchmarkFig54MaliciousRecognition(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, series, err := experiment.Fig54(ctx, benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		var finalSum float64
		for _, s := range series {
			finalSum += s.Final()
		}
		b.ReportMetric(finalSum/float64(len(series)), "final-malicious-rating")
	}
}

// BenchmarkFig55MDRVsUsers regenerates Figure 5.5 (MDR vs the number of
// users in a fixed area, both schemes).
func BenchmarkFig55MDRVsUsers(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, points, err := experiment.Fig55(ctx, benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: the ChitChat/incentive MDR gap at the largest network
		// — the paper reports it "almost fades away".
		last := points[len(points)-1]
		b.ReportMetric(last.ChitChat.MDR-last.Incentive.MDR, "mdr-gap-at-3x-users")
	}
}

// BenchmarkFig56PriorityMDR regenerates Figure 5.6 (priority-segmented
// deliveries at 20% and 40% selfish with the 50/30/20 generator split).
func BenchmarkFig56PriorityMDR(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, points, err := experiment.Fig56(ctx, benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: high-priority deliveries, incentive minus ChitChat,
		// averaged over the two selfish levels (paper: positive).
		var delta float64
		for _, p := range points {
			delta += p.Incentive.DeliveredHigh - p.ChitChat.DeliveredHigh
		}
		b.ReportMetric(delta/float64(len(points)), "extra-high-prio-delivered")
	}
}

// BenchmarkAblationReputation measures the DRM on/off (DESIGN.md ablation:
// without reputation, forged tags earn full awards).
func BenchmarkAblationReputation(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, res, err := experiment.AblationReputation(ctx, benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ablated.MDR-res.Full.MDR, "mdr-delta-ablated")
	}
}

// BenchmarkAblationEnrichment measures content enrichment on/off.
func BenchmarkAblationEnrichment(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, res, err := experiment.AblationEnrichment(ctx, benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Full.Transfers-res.Ablated.Transfers, "extra-transfers-with-enrichment")
	}
}

// BenchmarkAblationPrepay measures the relay-threshold prepayment on/off.
func BenchmarkAblationPrepay(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, res, err := experiment.AblationPrepay(ctx, benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Full.MDR-res.Ablated.MDR, "mdr-delta-prepay")
	}
}

// BenchmarkAblationPriorityBuffers measures priority-aware eviction against
// drop-oldest under the Figure 5.6 generator split.
func BenchmarkAblationPriorityBuffers(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, res, err := experiment.AblationPriorityBuffers(ctx, benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Full.PriorityMDRs[0]-res.Ablated.PriorityMDRs[0], "high-mdr-delta")
	}
}

// BenchmarkRouterComparison runs the four shipped routers under the
// incentive layer (epidemic ceiling, direct floor — the thesis intro's
// trade-off).
func BenchmarkRouterComparison(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, avgs, err := experiment.BaselineComparison(ctx, benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(avgs["epidemic"].MDR, "epidemic-mdr")
		b.ReportMetric(avgs["direct"].MDR, "direct-mdr")
		b.ReportMetric(avgs["chitchat"].MDR, "chitchat-mdr")
	}
}

// BenchmarkBatterySweep measures delivery against radio energy budgets
// (the battery-scarcity extension; zero budget = the paper's unlimited
// setting).
func BenchmarkBatterySweep(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, avgs, err := experiment.BatterySweep(ctx, benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(avgs[0].MDR-avgs[0.5].MDR, "mdr-cost-of-tiny-battery")
	}
}

// BenchmarkReputationModels compares the paper's DRM with the REPSYS-style
// Beta comparator on the malicious-recognition task.
func BenchmarkReputationModels(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, series, err := experiment.ReputationModelComparison(ctx, benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(series["drm"].Final(), "drm-final-rating")
		b.ReportMetric(series["beta"].Final(), "beta-final-rating")
	}
}

// BenchmarkSensitivity runs the one-at-a-time design-parameter sweep
// (α, relay threshold, prepay fraction, tag reward, I_m).
func BenchmarkSensitivity(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, points, err := experiment.Sensitivity(ctx, benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(points)), "settings")
	}
}

// BenchmarkSweepScheduler pushes the Figure 5.1 sweep through the bounded
// experiment pool at GOMAXPROCS slots (the dtnexp default), measuring
// end-to-end scheduler throughput — (point × scheme × seed) jobs sharing
// one concurrency cap — in simulated seconds retired per wall second.
func BenchmarkSweepScheduler(b *testing.B) {
	pool := experiment.NewPool(runtime.GOMAXPROCS(0))
	pr := experiment.NewProgress()
	pool.SetProgress(pr)
	ctx := experiment.WithPool(context.Background(), pool)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := experiment.SelfishSweep(ctx, benchProfile(), []int{0, 40, 80})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 3 {
			b.Fatalf("points = %d", len(points))
		}
	}
	s := pr.Snapshot()
	b.ReportMetric(s.Throughput(), "sim-s/wall-s")
	b.ReportMetric(float64(s.Done)/float64(b.N), "jobs/op")
}

// BenchmarkSweepSchedulerSingleWorker is the same sweep pinned to one
// worker — the sequential baseline for the scheduler's speedup.
func BenchmarkSweepSchedulerSingleWorker(b *testing.B) {
	pool := experiment.NewPool(1)
	ctx := experiment.WithPool(context.Background(), pool)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.SelfishSweep(ctx, benchProfile(), []int{0, 40, 80}); err != nil {
			b.Fatal(err)
		}
	}
}

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

func reportSweep(b *testing.B, points []experiment.Fig51Point) {
	b.Helper()
	if len(points) == 0 {
		b.Fatal("empty sweep")
	}
	first, last := points[0], points[len(points)-1]
	b.ReportMetric(first.Incentive.MDR, "mdr-at-0-selfish")
	b.ReportMetric(last.Incentive.MDR, "mdr-at-80-selfish")
	b.ReportMetric(first.Incentive.MDR-last.Incentive.MDR, "mdr-drop")
}
