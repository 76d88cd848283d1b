// Package experiment regenerates every table and figure in the paper's
// evaluation (Paper I §5): one runner per artifact, a multi-seed averaging
// driver, and plain-text table formatting that prints the same rows/series
// the paper plots. See EXPERIMENTS.md for the paper-vs-measured record.
package experiment

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/message"
	"dtnsim/internal/scenario"
)

// priorityOf maps the paper's 1–3 encoding onto the message type.
func priorityOf(p int) message.Priority { return message.Priority(p) }

// Profile scales an experiment. Paper is Table 5.1 exactly; Quick and Bench
// shrink the network while preserving node density (participants per km²),
// which is what the contact dynamics — and therefore the result shapes —
// depend on.
type Profile struct {
	// Name labels the profile in output.
	Name string
	// Nodes is the participant count.
	Nodes int
	// AreaKm2 is the world size.
	AreaKm2 float64
	// Duration is the simulated time span.
	Duration time.Duration
	// Seeds are averaged over ("The results shown are average of five
	// simulation runs").
	Seeds []int64
	// MeanMessageInterval is the per-node generation interval.
	MeanMessageInterval time.Duration
	// Step is the tick granularity.
	Step time.Duration
}

// The standard profiles. All keep the paper's density of 100 nodes/km².
var (
	// PaperProfile is Table 5.1: 500 nodes, 5 km², 24 h, five runs.
	PaperProfile = Profile{
		Name:                "paper",
		Nodes:               500,
		AreaKm2:             5,
		Duration:            24 * time.Hour,
		Seeds:               []int64{1, 2, 3, 4, 5},
		MeanMessageInterval: 2 * time.Hour,
		Step:                time.Second,
	}
	// QuickProfile shrinks to 100 nodes / 1 km² / 6 h / 2 seeds so the
	// full figure suite completes in minutes on a laptop.
	QuickProfile = Profile{
		Name:                "quick",
		Nodes:               100,
		AreaKm2:             1,
		Duration:            6 * time.Hour,
		Seeds:               []int64{1, 2},
		MeanMessageInterval: 45 * time.Minute,
		Step:                2 * time.Second,
	}
	// BenchProfile is the testing.B scale: one seed, 2 h, 60 nodes.
	BenchProfile = Profile{
		Name:                "bench",
		Nodes:               60,
		AreaKm2:             0.6,
		Duration:            2 * time.Hour,
		Seeds:               []int64{1},
		MeanMessageInterval: 30 * time.Minute,
		Step:                2 * time.Second,
	}
)

// ProfileByName resolves "paper", "quick", or "bench".
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "paper":
		return PaperProfile, nil
	case "quick":
		return QuickProfile, nil
	case "bench":
		return BenchProfile, nil
	default:
		return Profile{}, fmt.Errorf("experiment: unknown profile %q (want paper, quick, or bench)", name)
	}
}

// baseSpec maps the profile onto a scenario spec for the given scheme.
func (p Profile) baseSpec(scheme core.Scheme) scenario.Spec {
	spec := scenario.Default(scheme)
	spec.Nodes = p.Nodes
	spec.AreaKm2 = p.AreaKm2
	spec.Duration = p.Duration
	spec.MeanMessageInterval = p.MeanMessageInterval
	spec.Step = p.Step
	return spec
}

// Avg is the seed-averaged summary of one parameter point. MDRStd carries
// the across-seed sample standard deviation so experiment output can show
// run-to-run variance alongside the mean.
type Avg struct {
	MDR            float64
	MDRStd         float64
	PriorityMDRs   [3]float64 // indexed high/medium/low - 1
	DeliveredHigh  float64
	DeliveredMed   float64
	DeliveredLow   float64
	Transfers      float64
	RelayTransfers float64
	RefusedTokens  float64
	TokensMean     float64
	Exhausted      float64
	Runs           int

	mdrValues []float64
}

// RunAveraged executes the spec once per seed on the sweep scheduler —
// the context's Pool when present, else a transient GOMAXPROCS-bounded one
// — and averages the observables. Results accumulate in seed order
// regardless of completion order, so the averages are bit-for-bit
// reproducible.
func RunAveraged(ctx context.Context, spec scenario.Spec, seeds []int64) (Avg, error) {
	results, err := runJobs(ctx, seedJobs(spec, seeds, nil))
	if err != nil {
		return Avg{}, err
	}
	var avg Avg
	for _, res := range results {
		avg.accumulate(res)
	}
	avg.finish()
	return avg, nil
}

func (a *Avg) accumulate(res core.Result) {
	a.mdrValues = append(a.mdrValues, res.MDR)
	a.MDR += res.MDR
	for p := 1; p <= 3; p++ {
		a.PriorityMDRs[p-1] += res.PriorityMDR(priorityOf(p))
	}
	a.DeliveredHigh += float64(res.DeliveredByPriority[priorityOf(1)])
	a.DeliveredMed += float64(res.DeliveredByPriority[priorityOf(2)])
	a.DeliveredLow += float64(res.DeliveredByPriority[priorityOf(3)])
	a.Transfers += float64(res.Transfers)
	a.RelayTransfers += float64(res.RelayTransfers)
	a.RefusedTokens += float64(res.RefusedNoTokens)
	a.TokensMean += res.TokensMean
	a.Exhausted += float64(res.ExhaustedNodes)
	a.Runs++
}

func (a *Avg) finish() {
	if a.Runs == 0 {
		return
	}
	n := float64(a.Runs)
	a.MDR /= n
	for i := range a.PriorityMDRs {
		a.PriorityMDRs[i] /= n
	}
	a.DeliveredHigh /= n
	a.DeliveredMed /= n
	a.DeliveredLow /= n
	a.Transfers /= n
	a.RelayTransfers /= n
	a.RefusedTokens /= n
	a.TokensMean /= n
	a.Exhausted /= n
	if len(a.mdrValues) > 1 {
		var ss float64
		for _, v := range a.mdrValues {
			d := v - a.MDR
			ss += d * d
		}
		a.MDRStd = math.Sqrt(ss / float64(len(a.mdrValues)-1))
	}
	a.mdrValues = nil
}

// Table is a printable experiment artifact: the rows the paper plots.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table as aligned plain text.
func (t Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteByte('\n')
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for pad := len(cell); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
