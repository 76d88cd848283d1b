package experiment

import (
	"context"
	"strings"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/scenario"
)

// tinyProfile keeps integration tests fast: 20 nodes, 10 simulated minutes.
func tinyProfile() Profile {
	return Profile{
		Name:                "tiny",
		Nodes:               20,
		AreaKm2:             0.2,
		Duration:            10 * time.Minute,
		Seeds:               []int64{1},
		MeanMessageInterval: 2 * time.Minute,
		Step:                2 * time.Second,
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"paper", "quick", "bench"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name {
			t.Errorf("profile name = %q", p.Name)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile must fail")
	}
}

func TestProfilesPreserveDensity(t *testing.T) {
	for _, p := range []Profile{PaperProfile, QuickProfile, BenchProfile} {
		density := float64(p.Nodes) / p.AreaKm2
		if density != 100 {
			t.Errorf("%s profile density = %v nodes/km², want the paper's 100", p.Name, density)
		}
	}
}

func TestPaperProfileMatchesTable51(t *testing.T) {
	p := PaperProfile
	if p.Nodes != 500 || p.AreaKm2 != 5 || p.Duration != 24*time.Hour || len(p.Seeds) != 5 {
		t.Errorf("paper profile = %+v, want Table 5.1 values", p)
	}
}

// runAveraged runs spec once per seed on the sweep scheduler and averages
// the results in seed order, as the figure sweeps do for each point.
func runAveraged(ctx context.Context, spec scenario.Spec, seeds []int64) (Avg, error) {
	results, err := runJobs(ctx, seedJobs(spec, seeds, nil))
	if err != nil {
		return Avg{}, err
	}
	return avgSlots(results, len(seeds))[0], nil
}

func TestRunAveraged(t *testing.T) {
	p := tinyProfile()
	p.Seeds = []int64{1, 2}
	avg, err := runAveraged(context.Background(), p.baseSpec(core.SchemeChitChat), p.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Runs != 2 {
		t.Errorf("runs = %d", avg.Runs)
	}
	if avg.MDR < 0 || avg.MDR > 1 {
		t.Errorf("MDR = %v", avg.MDR)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := Table{
		Title:   "Demo",
		Columns: []string{"x", "longer"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tab.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "longer") || !strings.Contains(out, "333") {
		t.Errorf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Errorf("table lines = %d, want title + header + rule + 2 rows:\n%s", len(lines), out)
	}
}

func TestTable51ListsEveryParameter(t *testing.T) {
	tab := Table51(tinyProfile())
	out := tab.String()
	params := []string{
		"Number of Participants", "Pool of Social Interest Keywords",
		"No of Defined Social Interests", "Transmission speed",
		"Transmission radius", "Buffer capacity", "Message Size", "Area",
		"Simulated time", "Threshold for relay", "Number of initial tokens",
	}
	for _, param := range params {
		if !strings.Contains(out, param) {
			t.Errorf("Table 5.1 missing row %q", param)
		}
	}
	if len(tab.Rows) != len(params) {
		t.Errorf("Table 5.1 rows = %d, want %d", len(tab.Rows), len(params))
	}
}

func TestSelfishSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	points, err := SelfishSweep(context.Background(), tinyProfile(), []int{0, 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// Shape check: heavy selfishness must not raise MDR.
	if points[1].ChitChat.MDR > points[0].ChitChat.MDR+0.05 {
		t.Errorf("ChitChat MDR rose with selfishness: %v → %v",
			points[0].ChitChat.MDR, points[1].ChitChat.MDR)
	}
}

func TestFig53TokensHelp(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	tab, points, err := Fig53(context.Background(), tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 12 { // 4 token levels × 3 selfish levels
		t.Errorf("points = %d, want 12", len(points))
	}
	if len(tab.Rows) != 4 {
		t.Errorf("rows = %d, want 4 token levels", len(tab.Rows))
	}
}

func TestFig54SeriesDecline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	p := tinyProfile()
	p.Duration = 30 * time.Minute
	_, series, err := Fig54(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d, want 4 malicious levels", len(series))
	}
	for _, s := range series {
		if len(s.Samples) == 0 {
			t.Errorf("%d%% malicious: no samples", s.MaliciousPercent)
		}
	}
}

func TestFig56ClassSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	_, points, err := Fig56(context.Background(), tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want selfish 20 and 40", len(points))
	}
}

func TestAblationRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	tab, res, err := AblationEnrichment(context.Background(), tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Errorf("ablation rows = %d", len(tab.Rows))
	}
	if res.Full.Runs == 0 || res.Ablated.Runs == 0 {
		t.Error("ablation did not run both variants")
	}
}

func TestSensitivityCoversEveryKnob(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	p := tinyProfile()
	p.Duration = 5 * time.Minute
	tab, points, err := Sensitivity(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	knobs := map[string]int{}
	for _, pt := range points {
		knobs[pt.Knob]++
	}
	if len(knobs) != len(SensitivityKnobs()) {
		t.Errorf("knobs covered = %v", knobs)
	}
	settings := 0
	for _, k := range SensitivityKnobs() {
		settings += len(k.Values)
	}
	if len(points) != settings {
		t.Errorf("points = %d, want one per knob setting (%d)", len(points), settings)
	}
	if len(tab.Rows) != len(points) {
		t.Errorf("table rows = %d, points = %d", len(tab.Rows), len(points))
	}
}

func TestReputationModelComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	p := tinyProfile()
	tab, series, err := ReputationModelComparison(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || len(tab.Rows) != 2 {
		t.Fatalf("models = %d, rows = %d", len(series), len(tab.Rows))
	}
}

func TestBatterySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	_, avgs, err := BatterySweep(context.Background(), tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(avgs) != 4 {
		t.Fatalf("budgets = %d", len(avgs))
	}
}

func TestAvgStdDev(t *testing.T) {
	var a Avg
	a.accumulate(core.Result{MDR: 0.4})
	a.accumulate(core.Result{MDR: 0.6})
	a.finish()
	if a.MDR != 0.5 {
		t.Errorf("mean = %v", a.MDR)
	}
	// Sample std of {0.4, 0.6} = sqrt(2·0.01/1) ≈ 0.1414.
	if a.MDRStd < 0.14 || a.MDRStd > 0.15 {
		t.Errorf("std = %v", a.MDRStd)
	}
}

func TestBaselineComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	_, avgs, err := BaselineComparison(context.Background(), tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(avgs) != 6 {
		t.Fatalf("router results = %d", len(avgs))
	}
	// Epidemic floods: it must not move fewer messages than Direct.
	if avgs["epidemic"].Transfers < avgs["direct"].Transfers {
		t.Errorf("epidemic transfers %v < direct %v",
			avgs["epidemic"].Transfers, avgs["direct"].Transfers)
	}
}
