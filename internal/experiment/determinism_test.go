package experiment

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/message"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
	"dtnsim/internal/scenario"
)

// updateKernelGolden regenerates testdata/kernel_default.golden from the
// current engine. The committed golden was recorded from the pre-refactor
// polling kernel; the event-driven kernel must reproduce it byte for byte.
var updateKernelGolden = flag.Bool("update-kernel-golden", false,
	"rewrite the kernel determinism golden from the current engine")

// kernelGoldenSpec is the default scenario at the default step (1 s): the
// Table 5.1 density and behaviour mix, shrunk to an hour at 60 nodes so the
// guard runs in test time. Everything the figure tables read — delivery and
// traffic counters, the rating time series, the token economy — plus a hash
// of the complete event trace is rendered into the golden.
func kernelGoldenSpec(scheme core.Scheme) scenario.Spec {
	spec := scenario.Default(scheme)
	spec.Nodes = 60
	spec.AreaKm2 = 0.6
	spec.Duration = time.Hour
	spec.MeanMessageInterval = 15 * time.Minute
	spec.SelfishPercent = 20
	spec.MaliciousPercent = 10
	spec.Seed = 1
	return spec
}

// renderKernelGolden runs one scheme and formats every figure-feeding
// observable deterministically. Extra no-op observers may be attached;
// they must never change the bytes.
func renderKernelGolden(t *testing.T, scheme core.Scheme, extra ...obs.Observer) string {
	t.Helper()
	out, err := kernelGolden(t.Context(), scheme, extra...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// kernelGolden is renderKernelGolden reporting errors instead of failing
// the test, so pool jobs off the test goroutine can render too.
func kernelGolden(ctx context.Context, scheme core.Scheme, extra ...obs.Observer) (string, error) {
	spec := kernelGoldenSpec(scheme)
	cfg, nodes, err := scenario.Build(spec)
	if err != nil {
		return "", err
	}
	var trace obs.Buffer
	cfg.Observers = append([]obs.Observer{&trace}, extra...)
	eng, err := core.NewEngine(cfg, nodes)
	if err != nil {
		return "", err
	}
	res, err := eng.Run(ctx)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "scheme=%s nodes=%d duration=%s step=%s seed=%d\n",
		scheme, spec.Nodes, cfg.Duration, cfg.Step, cfg.Seed)
	fmt.Fprintf(&b, "created=%d delivered=%d mdr=%.6f latency=%s\n",
		res.Created, res.Delivered, res.MDR, res.MeanLatency)
	fmt.Fprintf(&b, "transfers=%d relay=%d aborted=%d\n",
		res.Transfers, res.RelayTransfers, res.AbortedTransfers)
	fmt.Fprintf(&b, "refused: tokens=%d reputation=%d radio=%d\n",
		res.RefusedNoTokens, res.RefusedReputation, res.RefusedRadioOff)
	fmt.Fprintf(&b, "tags: added=%d relevant=%d irrelevant=%d\n",
		res.TagsAdded, res.RelevantTags, res.IrrelevantTags)
	for p := message.PriorityHigh; p <= message.PriorityLow; p++ {
		fmt.Fprintf(&b, "priority %d: created=%d delivered=%d\n",
			int(p), res.CreatedByPriority[p], res.DeliveredByPriority[p])
	}
	for _, s := range res.RatingSeries {
		fmt.Fprintf(&b, "rating @%s = %.9f\n", s.At, s.MeanMaliciousRating)
	}
	fmt.Fprintf(&b, "tokens: min=%.6f max=%.6f mean=%.6f exhausted=%d\n",
		res.TokensMin, res.TokensMax, res.TokensMean, res.ExhaustedNodes)
	fmt.Fprintf(&b, "ledger: transfers=%d volume=%.6f\n",
		res.LedgerTransfers, res.LedgerVolume)
	fmt.Fprintf(&b, "energy=%.6f dead-radios=%d\n", res.EnergyJoules, res.DeadRadios)

	// The event trace pins the exact interleaving, not just the totals: any
	// reordering of contacts, exchanges, transfers, or payments shows up as
	// a different stream hash.
	h := fnv.New64a()
	for _, ev := range trace.Events {
		fmt.Fprintf(h, "%d|%d|%d|%d|%s|%g|%s|%t\n",
			ev.At, ev.Kind, ev.A, ev.B, ev.Msg, ev.Tokens, ev.Keyword, ev.Relevant)
	}
	fmt.Fprintf(&b, "events=%d trace-fnv=%016x\n", len(trace.Events), h.Sum64())
	return b.String(), nil
}

// TestKernelByteIdenticalToPollingSeed is the refactor's determinism guard:
// the event-scheduled kernel must reproduce the recorded polling-kernel
// output byte for byte for the default scenario at the default step, for
// both the incentive scheme and the ChitChat baseline.
func TestKernelByteIdenticalToPollingSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full-hour determinism run skipped in -short mode")
	}
	var b strings.Builder
	for _, scheme := range []core.Scheme{core.SchemeIncentive, core.SchemeChitChat} {
		b.WriteString(renderKernelGolden(t, scheme))
	}
	got := b.String()

	goldenPath := filepath.Join("testdata", "kernel_default.golden")
	if *updateKernelGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-kernel-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("kernel output diverged from the recorded polling-kernel golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestParallelWorkersByteIdentical is the sweep pool's determinism guard at
// trace level. Engines share no state, so copies of the golden scenario run
// side by side on an experiment pool of 2 and of 8 workers — every (copy,
// scheme) run one pool job, as many jobs as workers — must each reproduce
// the recorded golden byte for byte. 8 workers oversubscribe a small host,
// so runs are also preempted mid-step by one another.
func TestParallelWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-hour determinism runs skipped in -short mode")
	}
	goldenPath := filepath.Join("testdata", "kernel_default.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-kernel-golden): %v", err)
	}
	schemes := []core.Scheme{core.SchemeIncentive, core.SchemeChitChat}
	for _, workers := range []int{2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			out := make([]string, workers)
			jobs := make([]poolJob, workers)
			for i := range out {
				scheme := schemes[i%len(schemes)]
				jobs[i] = poolJob{simSeconds: kernelGoldenSpec(scheme).Duration.Seconds(), run: func(ctx context.Context) (err error) {
					out[i], err = kernelGolden(ctx, scheme)
					return err
				}}
			}
			if err := NewPool(workers).runAll(t.Context(), jobs); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < len(out); c += len(schemes) {
				if got := strings.Join(out[c:c+len(schemes)], ""); got != string(want) {
					t.Errorf("copy %d of %d diverged from the golden\n--- got ---\n%s\n--- want ---\n%s",
						c/len(schemes)+1, len(out)/len(schemes), got, want)
				}
			}
		})
	}
}

// countingObserver subscribes to the full lifecycle and every event kind
// (nil Kinds ⇒ all) but never touches engine state.
type countingObserver struct {
	obs.Base
	events, lifecycle int
}

func (c *countingObserver) RunStart(obs.Meta)      { c.lifecycle++ }
func (c *countingObserver) Event(report.Event)     { c.events++ }
func (c *countingObserver) RunEnd(obs.Snapshot)    { c.lifecycle++ }
func (c *countingObserver) Heartbeat(obs.Snapshot) { c.lifecycle++ }

// TestObserverLeavesGoldenByteIdentical is the observer API's overhead
// guard: attaching a passive observer — one that receives every event and
// lifecycle signal — must leave the golden event trace byte-identical to
// the recorded no-observer run. Observation may never perturb simulation.
func TestObserverLeavesGoldenByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-hour determinism run skipped in -short mode")
	}
	goldenPath := filepath.Join("testdata", "kernel_default.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-kernel-golden): %v", err)
	}
	var passive countingObserver
	var b strings.Builder
	for _, scheme := range []core.Scheme{core.SchemeIncentive, core.SchemeChitChat} {
		b.WriteString(renderKernelGolden(t, scheme, &passive))
	}
	if got := b.String(); got != string(want) {
		t.Errorf("attaching a no-op observer changed the golden output\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if passive.events == 0 {
		t.Error("passive observer saw no events — it was not actually attached")
	}
	if passive.lifecycle < 4 {
		t.Errorf("passive observer saw %d lifecycle signals, want ≥4 (RunStart+RunEnd per scheme)", passive.lifecycle)
	}
}
