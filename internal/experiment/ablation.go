package experiment

import (
	"context"
	"fmt"

	"dtnsim/internal/core"
	"dtnsim/internal/scenario"
)

// AblationResult compares the full incentive scheme against one disabled
// design choice.
type AblationResult struct {
	Name    string
	Full    Avg
	Ablated Avg
}

// AblationReputation measures what the DRM buys: with 20% malicious
// taggers, disabling reputation lets forged tags earn full awards (no
// rating-scaled discount and no avoidance), so malicious wallets fatten and
// destinations overpay.
func AblationReputation(ctx context.Context, p Profile) (Table, AblationResult, error) {
	base := p.baseSpec(core.SchemeIncentive)
	base.MaliciousPercent = 20
	base.MaliciousLowQuality = true
	return runAblation(ctx, p, "reputation", base, func(s *scenario.Spec) {
		s.DisableReputation = true
	})
}

// AblationEnrichment measures what content enrichment buys: extra keywords
// widen the destination set and raise delivery counts.
func AblationEnrichment(ctx context.Context, p Profile) (Table, AblationResult, error) {
	base := p.baseSpec(core.SchemeIncentive)
	return runAblation(ctx, p, "enrichment", base, func(s *scenario.Spec) {
		s.DisableEnrichment = true
	})
}

// AblationPrepay measures the relay-threshold prepayment's effect on token
// circulation (forwarders earn earlier, receivers commit tokens sooner).
func AblationPrepay(ctx context.Context, p Profile) (Table, AblationResult, error) {
	base := p.baseSpec(core.SchemeIncentive)
	base.SelfishPercent = 20
	return runAblation(ctx, p, "relay prepayment", base, func(s *scenario.Spec) {
		s.NoPrepay = true
	})
}

// AblationPriorityBuffers measures priority-aware eviction under buffer
// pressure against plain drop-oldest.
func AblationPriorityBuffers(ctx context.Context, p Profile) (Table, AblationResult, error) {
	base := p.baseSpec(core.SchemeIncentive)
	base.ClassSplit = true
	return runAblation(ctx, p, "priority buffers", base, func(s *scenario.Spec) {
		s.PlainBuffers = true
	})
}

// ReputationModelComparison runs the Figure 5.4 malicious-recognition
// experiment under both reputation models — the paper's DRM and the
// REPSYS-style Beta comparator — at 20% malicious nodes, reporting the
// final mean malicious rating and the award discount each model imposes.
func ReputationModelComparison(ctx context.Context, p Profile) (Table, map[string]Fig54Series, error) {
	out := make(map[string]Fig54Series, 2)
	t := Table{
		Title:   fmt.Sprintf("Reputation models — malicious recognition (%s profile)", p.Name),
		Columns: []string{"model", "final-malicious-rating", "refused(reputation)"},
	}
	models := []string{"drm", "beta"}
	jobs := make([]runJob, 0, len(models))
	for _, model := range models {
		spec := p.baseSpec(core.SchemeIncentive)
		spec.MaliciousPercent = 20
		spec.MaliciousLowQuality = true
		spec.BetaReputation = model == "beta"
		spec.Seed = p.Seeds[0]
		jobs = append(jobs, runJob{spec: spec})
	}
	results, err := runJobs(ctx, jobs)
	if err != nil {
		return Table{}, nil, err
	}
	for i, model := range models {
		res := results[i]
		series := Fig54Series{MaliciousPercent: 20, Samples: res.RatingSeries}
		out[model] = series
		t.Rows = append(t.Rows, []string{
			model,
			fmt.Sprintf("%.2f", series.Final()),
			fmt.Sprintf("%d", res.RefusedReputation),
		})
	}
	return t, out, nil
}

// BatterySweep measures delivery against radio energy budgets — the
// resource scarcity that motivates selfish behaviour in the first place
// (Paper I §1.3.1). Budgets are joules per node; zero is unlimited.
func BatterySweep(ctx context.Context, p Profile) (Table, map[float64]Avg, error) {
	budgets := []float64{0.5, 2, 8, 0}
	out := make(map[float64]Avg, len(budgets))
	t := Table{
		Title:   fmt.Sprintf("Battery sweep — MDR vs radio energy budget (%s profile)", p.Name),
		Columns: []string{"budget(J)", "MDR", "transfers", "deadRadios"},
	}
	var jobs []runJob
	for _, budget := range budgets {
		spec := p.baseSpec(core.SchemeIncentive)
		spec.BatteryJoules = budget
		jobs = append(jobs, seedJobs(spec, p.Seeds, nil)...)
	}
	results, err := runJobs(ctx, jobs)
	if err != nil {
		return Table{}, nil, err
	}
	avgs := avgSlots(results, len(p.Seeds))
	for i, budget := range budgets {
		var dead float64
		for _, res := range results[i*len(p.Seeds) : (i+1)*len(p.Seeds)] {
			dead += float64(res.DeadRadios)
		}
		dead /= float64(len(p.Seeds))
		avg := avgs[i]
		out[budget] = avg
		label := f1(budget)
		if budget == 0 {
			label = "unlimited"
		}
		t.Rows = append(t.Rows, []string{label, f3(avg.MDR), f0(avg.Transfers), f0(dead)})
	}
	return t, out, nil
}

func runAblation(ctx context.Context, p Profile, name string, base scenario.Spec, disable func(*scenario.Spec)) (Table, AblationResult, error) {
	ablatedSpec := base
	disable(&ablatedSpec)
	jobs := append(seedJobs(base, p.Seeds, nil), seedJobs(ablatedSpec, p.Seeds, nil)...)
	results, err := runJobs(ctx, jobs)
	if err != nil {
		return Table{}, AblationResult{}, err
	}
	avgs := avgSlots(results, len(p.Seeds))
	full, ablated := avgs[0], avgs[1]
	res := AblationResult{Name: name, Full: full, Ablated: ablated}
	t := Table{
		Title:   fmt.Sprintf("Ablation — %s on/off (%s profile)", name, p.Name),
		Columns: []string{"variant", "MDR", "transfers", "relay", "refused(tokens)", "tokens(mean)", "highMDR"},
		Rows: [][]string{
			{"full", f3(full.MDR), f0(full.Transfers), f0(full.RelayTransfers), f0(full.RefusedTokens), f1(full.TokensMean), f3(full.PriorityMDRs[0])},
			{"ablated", f3(ablated.MDR), f0(ablated.Transfers), f0(ablated.RelayTransfers), f0(ablated.RefusedTokens), f1(ablated.TokensMean), f3(ablated.PriorityMDRs[0])},
		},
	}
	return t, res, nil
}

// BaselineComparison runs the six shipped routers under the incentive
// layer, demonstrating that the scheme "can be integrated with any other
// DTN routing scheme" (Paper I §1) and reproducing the thesis
// introduction's throughput/overhead trade-off (epidemic ceiling, direct
// floor). Each run builds a fresh router so stateful algorithms (PRoPHET)
// don't leak predictabilities across seeds.
func BaselineComparison(ctx context.Context, p Profile) (Table, map[string]Avg, error) {
	names := scenario.RouterNames()
	out := make(map[string]Avg, len(names))
	t := Table{
		Title:   fmt.Sprintf("Router comparison under the incentive layer (%s profile)", p.Name),
		Columns: []string{"router", "MDR", "transfers", "relay"},
	}
	var jobs []runJob
	for _, name := range names {
		spec := p.baseSpec(core.SchemeIncentive)
		spec.RouterName = name
		jobs = append(jobs, seedJobs(spec, p.Seeds, nil)...)
	}
	results, err := runJobs(ctx, jobs)
	if err != nil {
		return Table{}, nil, err
	}
	avgs := avgSlots(results, len(p.Seeds))
	for i, name := range names {
		avg := avgs[i]
		out[name] = avg
		t.Rows = append(t.Rows, []string{name, f3(avg.MDR), f0(avg.Transfers), f0(avg.RelayTransfers)})
	}
	return t, out, nil
}
