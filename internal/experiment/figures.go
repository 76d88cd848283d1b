package experiment

import (
	"context"
	"fmt"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/radio"
	"dtnsim/internal/scenario"
)

// Fig51Point is one selfish-percentage sweep point of Figures 5.1 and 5.2.
type Fig51Point struct {
	SelfishPercent int
	ChitChat       Avg
	Incentive      Avg
}

// TrafficReduction returns Figure 5.2's metric: the percentage of relayed
// traffic the incentive scheme removes relative to ChitChat.
func (p Fig51Point) TrafficReduction() float64 {
	if p.ChitChat.RelayTransfers == 0 {
		return 0
	}
	return 100 * (p.ChitChat.RelayTransfers - p.Incentive.RelayTransfers) / p.ChitChat.RelayTransfers
}

// SelfishSweep runs both schemes across the selfish-percentage axis shared
// by Figures 5.1 and 5.2 ("we vary the percentage of selfish nodes at a
// rate of 10% from 0 to 100 percent"). The whole grid — (percent × scheme ×
// seed) — is submitted to the sweep scheduler as one flat batch and
// aggregated in submission order.
func SelfishSweep(ctx context.Context, p Profile, percents []int) ([]Fig51Point, error) {
	if len(percents) == 0 {
		percents = []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	}
	schemes := []core.Scheme{core.SchemeChitChat, core.SchemeIncentive}
	var jobs []runJob
	for _, pct := range percents {
		for _, scheme := range schemes {
			spec := p.baseSpec(scheme)
			spec.SelfishPercent = pct
			jobs = append(jobs, seedJobs(spec, p.Seeds, nil)...)
		}
	}
	results, err := runJobs(ctx, jobs)
	if err != nil {
		return nil, err
	}
	avgs := avgSlots(results, len(p.Seeds))
	points := make([]Fig51Point, 0, len(percents))
	for i, pct := range percents {
		points = append(points, Fig51Point{
			SelfishPercent: pct,
			ChitChat:       avgs[2*i],
			Incentive:      avgs[2*i+1],
		})
	}
	return points, nil
}

// Fig51 reproduces Figure 5.1: MDR vs percentage of selfish nodes, for
// ChitChat and the incentive scheme.
func Fig51(ctx context.Context, p Profile) (Table, []Fig51Point, error) {
	points, err := SelfishSweep(ctx, p, nil)
	if err != nil {
		return Table{}, nil, err
	}
	t := Table{
		Title:   fmt.Sprintf("Figure 5.1 — MDR vs %% selfish nodes (%s profile)", p.Name),
		Columns: []string{"selfish%", "MDR(chitchat)", "MDR(incentive)"},
	}
	for _, pt := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pt.SelfishPercent),
			f3(pt.ChitChat.MDR),
			f3(pt.Incentive.MDR),
		})
	}
	return t, points, nil
}

// Fig52 reproduces Figure 5.2: percentage of reduced (relay) traffic over
// ChitChat vs percentage of selfish nodes. Traffic is measured as relay
// handovers — the overhead transfers that do not themselves deliver.
func Fig52(ctx context.Context, p Profile) (Table, []Fig51Point, error) {
	points, err := SelfishSweep(ctx, p, nil)
	if err != nil {
		return Table{}, nil, err
	}
	return fig52Table(p, points), points, nil
}

func fig52Table(p Profile, points []Fig51Point) Table {
	t := Table{
		Title:   fmt.Sprintf("Figure 5.2 — %% traffic reduced over ChitChat (%s profile)", p.Name),
		Columns: []string{"selfish%", "relay(chitchat)", "relay(incentive)", "reduced%"},
	}
	for _, pt := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pt.SelfishPercent),
			f0(pt.ChitChat.RelayTransfers),
			f0(pt.Incentive.RelayTransfers),
			f1(pt.TrafficReduction()),
		})
	}
	return t
}

// Fig53Point is one (initial tokens, selfish%) cell of Figure 5.3.
type Fig53Point struct {
	InitialTokens  float64
	SelfishPercent int
	Incentive      Avg
}

// Fig53 reproduces Figure 5.3: the effect of the initial token allowance on
// MDR, at several selfish percentages.
func Fig53(ctx context.Context, p Profile) (Table, []Fig53Point, error) {
	tokenLevels := []float64{50, 100, 200, 400}
	selfish := []int{20, 40, 60}
	var jobs []runJob
	for _, tokens := range tokenLevels {
		for _, pct := range selfish {
			spec := p.baseSpec(core.SchemeIncentive)
			spec.SelfishPercent = pct
			spec.InitialTokens = tokens
			jobs = append(jobs, seedJobs(spec, p.Seeds, nil)...)
		}
	}
	results, err := runJobs(ctx, jobs)
	if err != nil {
		return Table{}, nil, err
	}
	avgs := avgSlots(results, len(p.Seeds))
	var points []Fig53Point
	t := Table{
		Title:   fmt.Sprintf("Figure 5.3 — MDR vs initial tokens (%s profile)", p.Name),
		Columns: []string{"tokens", "MDR(20% selfish)", "MDR(40% selfish)", "MDR(60% selfish)"},
	}
	slot := 0
	for _, tokens := range tokenLevels {
		row := []string{f0(tokens)}
		for _, pct := range selfish {
			avg := avgs[slot]
			slot++
			points = append(points, Fig53Point{InitialTokens: tokens, SelfishPercent: pct, Incentive: avg})
			row = append(row, f3(avg.MDR))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, points, nil
}

// Fig54Series is the malicious-rating time series for one malicious
// percentage.
type Fig54Series struct {
	MaliciousPercent int
	Samples          []core.RatingSample
}

// Final returns the last sample's mean rating (the curve's end point).
func (s Fig54Series) Final() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	return s.Samples[len(s.Samples)-1].MeanMaliciousRating
}

// Fig54 reproduces Figure 5.4: the average rating of malicious nodes as
// held by non-malicious nodes over time, for 10–40% malicious populations.
// Time series come from the first seed (the paper plots single trajectories).
func Fig54(ctx context.Context, p Profile) (Table, []Fig54Series, error) {
	percents := []int{10, 20, 30, 40}
	jobs := make([]runJob, 0, len(percents))
	for _, pct := range percents {
		spec := p.baseSpec(core.SchemeIncentive)
		spec.MaliciousPercent = pct
		spec.MaliciousLowQuality = true
		spec.Seed = p.Seeds[0]
		jobs = append(jobs, runJob{spec: spec})
	}
	results, err := runJobs(ctx, jobs)
	if err != nil {
		return Table{}, nil, err
	}
	var series []Fig54Series
	for i, pct := range percents {
		series = append(series, Fig54Series{MaliciousPercent: pct, Samples: results[i].RatingSeries})
	}
	t := Table{
		Title:   fmt.Sprintf("Figure 5.4 — avg rating of malicious nodes vs time (%s profile)", p.Name),
		Columns: []string{"time", "10% malicious", "20% malicious", "30% malicious", "40% malicious"},
	}
	if len(series) > 0 {
		for i := range series[0].Samples {
			row := []string{series[0].Samples[i].At.Round(time.Minute).String()}
			for _, s := range series {
				if i < len(s.Samples) {
					row = append(row, fmt.Sprintf("%.2f", s.Samples[i].MeanMaliciousRating))
				} else {
					row = append(row, "-")
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, series, nil
}

// Fig55Point is one network-size point of Figure 5.5.
type Fig55Point struct {
	Users     int
	ChitChat  Avg
	Incentive Avg
}

// Fig55 reproduces Figure 5.5: MDR vs number of users in a fixed area, for
// both schemes ("the number of users is varied from 500 to 1500 with an
// interval of 500"). The profile's node count is the 1× baseline; the area
// stays fixed so density rises with the user count, as in the paper.
func Fig55(ctx context.Context, p Profile) (Table, []Fig55Point, error) {
	multipliers := []int{1, 2, 3}
	schemes := []core.Scheme{core.SchemeChitChat, core.SchemeIncentive}
	var jobs []runJob
	for _, mul := range multipliers {
		for _, scheme := range schemes {
			spec := p.baseSpec(scheme)
			spec.Nodes = p.Nodes * mul
			jobs = append(jobs, seedJobs(spec, p.Seeds, nil)...)
		}
	}
	results, err := runJobs(ctx, jobs)
	if err != nil {
		return Table{}, nil, err
	}
	avgs := avgSlots(results, len(p.Seeds))
	var points []Fig55Point
	t := Table{
		Title:   fmt.Sprintf("Figure 5.5 — MDR vs number of users (%s profile)", p.Name),
		Columns: []string{"users", "MDR(chitchat)", "MDR(incentive)"},
	}
	for i, mul := range multipliers {
		point := Fig55Point{
			Users:     p.Nodes * mul,
			ChitChat:  avgs[2*i],
			Incentive: avgs[2*i+1],
		}
		points = append(points, point)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", point.Users),
			f3(point.ChitChat.MDR),
			f3(point.Incentive.MDR),
		})
	}
	return t, points, nil
}

// Fig56Point is one (selfish%, scheme) cell of Figure 5.6 with the
// priority-segmented delivery counts.
type Fig56Point struct {
	SelfishPercent int
	ChitChat       Avg
	Incentive      Avg
}

// Fig56 reproduces Figure 5.6: priority-segmented deliveries at 20% and 40%
// selfish nodes, with the 50/30/20 high/medium/low generator split. The
// runs apply storage pressure (8 MB buffers, ~6 resident messages, at a
// heavier generation rate) — the regime where priority-aware eviction,
// priority-ordered transmission, and priority-scaled incentives act; with
// the paper-default 250 MB buffers nothing is ever evicted at sub-paper
// scales and the segmentation is flat.
func Fig56(ctx context.Context, p Profile) (Table, []Fig56Point, error) {
	percents := []int{20, 40}
	schemes := []core.Scheme{core.SchemeChitChat, core.SchemeIncentive}
	// Buffer pressure is applied after the scenario build, per seed job.
	pressure := func(cfg *core.Config) { cfg.BufferCapacity = 8 << 20 }
	var jobs []runJob
	for _, pct := range percents {
		for _, scheme := range schemes {
			spec := p.baseSpec(scheme)
			spec.SelfishPercent = pct
			spec.ClassSplit = true
			spec.MeanMessageInterval = p.MeanMessageInterval / 3
			jobs = append(jobs, seedJobs(spec, p.Seeds, pressure)...)
		}
	}
	results, err := runJobs(ctx, jobs)
	if err != nil {
		return Table{}, nil, err
	}
	avgs := avgSlots(results, len(p.Seeds))
	var points []Fig56Point
	t := Table{
		Title:   fmt.Sprintf("Figure 5.6 — priority-segmented deliveries under storage pressure (%s profile)", p.Name),
		Columns: []string{"selfish%", "scheme", "high", "medium", "low", "highMDR"},
	}
	slot := 0
	for _, pct := range percents {
		point := Fig56Point{SelfishPercent: pct}
		for _, scheme := range schemes {
			avg := avgs[slot]
			slot++
			if scheme == core.SchemeChitChat {
				point.ChitChat = avg
			} else {
				point.Incentive = avg
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", pct),
				scheme.String(),
				f0(avg.DeliveredHigh),
				f0(avg.DeliveredMed),
				f0(avg.DeliveredLow),
				f3(avg.PriorityMDRs[0]),
			})
		}
		points = append(points, point)
	}
	return t, points, nil
}

// Table51 prints the simulation parameters (Table 5.1) as configured by the
// profile's scenario, paper defaults beside profile actuals.
func Table51(p Profile) Table {
	cfg, _, err := scenario.Build(p.baseSpec(core.SchemeIncentive))
	if err != nil {
		return Table{Title: "Table 5.1 — unavailable: " + err.Error()}
	}
	rows := [][]string{
		{"Number of Participants", "500", fmt.Sprintf("%d", p.Nodes)},
		{"Pool of Social Interest Keywords", "200", "200"},
		{"No of Defined Social Interests", "20 per node", "20 per node"},
		{"Transmission speed", "250 kBps", fmt.Sprintf("%.0f kBps", radio.Bandwidth/1000)},
		{"Transmission radius", "100 meters", fmt.Sprintf("%.0f meters", radio.Range)},
		{"Buffer capacity", "250 MB", fmt.Sprintf("%d MB", cfg.BufferCapacity>>20)},
		{"Message Size", "1 MB", fmt.Sprintf("%d MB", core.MessageSize>>20)},
		{"Area", "5 sq.km.", fmt.Sprintf("%.1f sq.km.", cfg.Area.Area()/1e6)},
		{"Simulated time", "24 hours", p.Duration.String()},
		{"Threshold for relay", "0.8", fmt.Sprintf("%.1f", cfg.Incentive.RelayThreshold)},
		{"Number of initial tokens", "200 per node", fmt.Sprintf("%.0f per node", cfg.Incentive.InitialTokens)},
	}
	return Table{
		Title:   fmt.Sprintf("Table 5.1 — simulation parameters (paper vs %s profile)", p.Name),
		Columns: []string{"Configuration", "Paper", "This run"},
		Rows:    rows,
	}
}
