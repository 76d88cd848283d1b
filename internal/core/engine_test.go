package core_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"dtnsim/internal/behavior"
	"dtnsim/internal/core"
	"dtnsim/internal/enrich"
	"dtnsim/internal/ident"
	"dtnsim/internal/message"
	"dtnsim/internal/mobility"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
	"dtnsim/internal/scenario"
	"dtnsim/internal/sim"
	"dtnsim/internal/world"
)

// lineConfig builds a config with no background workload, suitable for
// choreographed message tests.
func lineConfig(t *testing.T, scheme core.Scheme) core.Config {
	t.Helper()
	vocab, err := enrich.NewVocabulary(20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Area = world.Rect{Width: 1000, Height: 1000}
	cfg.Duration = 10 * time.Minute
	cfg.Workload = core.DefaultWorkload(vocab)
	cfg.Workload.MeanInterval = 0 // no background generation
	cfg.RatingSampleInterval = 0
	return cfg
}

func stationary(x, y float64) *mobility.Stationary {
	return &mobility.Stationary{At: world.Point{X: x, Y: y}}
}

// lineSpecs places A—B—C so that A↔B and B↔C are in the 100 m radio range
// but A↔C is not: any A→C delivery must relay through B.
func lineSpecs() []core.NodeSpec {
	return []core.NodeSpec{
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(100, 100)},
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(180, 100)},
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(260, 100), Interests: []string{"kw-0"}},
	}
}

func TestMultiHopDeliveryThroughRelay(t *testing.T) {
	cfg := lineConfig(t, core.SchemeIncentive)
	eng, err := core.NewEngine(cfg, lineSpecs())
	if err != nil {
		t.Fatal(err)
	}
	devA, err := eng.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := devA.Annotate([]string{"kw-0", "kw-1"}, []string{"kw-0"}, 1<<20, message.PriorityHigh, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (result: %+v)", res.Delivered, res.Report)
	}
	// The copy must have traversed A → B → C.
	devC, _ := eng.Device(2)
	var found *message.Message
	for _, got := range devC.ReceivedMessages() {
		if got.ID == m.ID {
			found = got
		}
	}
	if found == nil {
		t.Fatal("destination does not hold the delivered message")
	}
	if found.HopCount() != 2 {
		t.Errorf("hop count = %d, want 2 (A→B→C)", found.HopCount())
	}

	// Token flow: the deliverer B earned from destination C; A earned
	// nothing for the free relay handover; supply conserved.
	balA := eng.Node(0).Wallet().Balance()
	balB := eng.Node(1).Wallet().Balance()
	balC := eng.Node(2).Wallet().Balance()
	initial := cfg.Incentive.InitialTokens
	if balB <= initial {
		t.Errorf("relay-deliverer balance = %v, want > %v", balB, initial)
	}
	if balC >= initial {
		t.Errorf("destination balance = %v, want < %v", balC, initial)
	}
	if total := balA + balB + balC; math.Abs(total-3*initial) > 1e-6 {
		t.Errorf("token supply = %v, want %v", total, 3*initial)
	}
}

func TestChitChatSchemeMovesNoTokens(t *testing.T) {
	cfg := lineConfig(t, core.SchemeChitChat)
	eng, err := core.NewEngine(cfg, lineSpecs())
	if err != nil {
		t.Fatal(err)
	}
	devA, _ := eng.Device(0)
	if _, err := devA.Annotate([]string{"kw-0"}, []string{"kw-0"}, 1<<20, message.PriorityHigh, 0.9); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", res.Delivered)
	}
	if res.LedgerTransfers != 0 || res.LedgerVolume != 0 {
		t.Errorf("baseline moved tokens: %d transfers, %v volume", res.LedgerTransfers, res.LedgerVolume)
	}
	if res.TokensMin != cfg.Incentive.InitialTokens || res.TokensMax != cfg.Incentive.InitialTokens {
		t.Error("baseline changed balances")
	}
}

// TestZeroTokenRuleBarsBrokeDestination: with zero initial tokens, the
// destination cannot pay and must not receive; under the baseline the same
// topology delivers.
func TestZeroTokenRuleBarsBrokeDestination(t *testing.T) {
	cfg := lineConfig(t, core.SchemeIncentive)
	cfg.Incentive.InitialTokens = 0
	eng, err := core.NewEngine(cfg, lineSpecs())
	if err != nil {
		t.Fatal(err)
	}
	devA, _ := eng.Device(0)
	if _, err := devA.Annotate([]string{"kw-0"}, []string{"kw-0"}, 1<<20, message.PriorityHigh, 0.9); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 {
		t.Errorf("delivered = %d, want 0 under the zero-token rule", res.Delivered)
	}
	if res.RefusedNoTokens == 0 {
		t.Error("expected zero-token refusals to be recorded")
	}
}

func TestDeterministicRuns(t *testing.T) {
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = 40
	spec.AreaKm2 = 0.4
	spec.Duration = 30 * time.Minute
	spec.SelfishPercent = 20
	spec.MaliciousPercent = 10
	spec.MeanMessageInterval = 10 * time.Minute
	spec.Seed = 7

	run := func() core.Result {
		eng, err := scenario.BuildEngine(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Created != r2.Created || r1.Delivered != r2.Delivered ||
		r1.Transfers != r2.Transfers || r1.RelayTransfers != r2.RelayTransfers ||
		r1.LedgerTransfers != r2.LedgerTransfers ||
		math.Abs(r1.LedgerVolume-r2.LedgerVolume) > 1e-9 ||
		math.Abs(r1.TokensMean-r2.TokensMean) > 1e-9 {
		t.Errorf("same-seed runs diverged:\n%+v\n%+v", r1.Report, r2.Report)
	}
	spec.Seed = 8
	r3 := run()
	if r1.Transfers == r3.Transfers && r1.LedgerVolume == r3.LedgerVolume && r1.Created == r3.Created {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

// runTrace builds and runs spec — mutate, if set, adjusts the node specs
// first — and returns the complete event trace. It reports errors rather
// than failing the test, so it can run off the test goroutine.
func runTrace(spec scenario.Spec, mutate func([]core.NodeSpec) error) ([]report.Event, error) {
	cfg, specs, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		if err := mutate(specs); err != nil {
			return nil, err
		}
	}
	var buf report.Buffer
	cfg.Observers = []obs.Observer{obs.Record(&buf)}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(context.Background()); err != nil {
		return nil, err
	}
	return buf.Events, nil
}

// requireSideBySideTraces runs spec alone, then as n engines side by side
// on their own goroutines — the way the experiment pool runs a sweep — and
// requires every concurrent trace to equal the lone one event for event.
func requireSideBySideTraces(t *testing.T, spec scenario.Spec, n int, mutate func([]core.NodeSpec) error) {
	t.Helper()
	want, err := runTrace(spec, mutate)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("lone run produced no events; scenario too sparse to test anything")
	}
	traces := make([][]report.Event, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			traces[i], errs[i] = runTrace(spec, mutate)
		}()
	}
	wg.Wait()
	for i, got := range traces {
		if errs[i] != nil {
			t.Fatalf("engine %d: %v", i, errs[i])
		}
		label := fmt.Sprintf("engine %d of %d", i+1, n)
		if len(got) != len(want) {
			t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: event %d = %+v, want %+v", label, j, got[j], want[j])
			}
		}
	}
}

// TestEngineParallelTraceEquality pins the premise the experiment pool
// rests on: engines share no mutable state, so runs executing side by side
// on separate goroutines each reproduce the lone run's complete event trace
// — contacts, exchanges, transfers, payments. Under `go test -race` (core
// is in the CI race list) it doubles as a probe for state shared between
// engines.
func TestEngineParallelTraceEquality(t *testing.T) {
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = 40
	spec.AreaKm2 = 0.4
	spec.Duration = 20 * time.Minute
	spec.MeanMessageInterval = 5 * time.Minute
	spec.SelfishPercent = 20
	spec.MaliciousPercent = 10
	spec.Seed = 9
	requireSideBySideTraces(t, spec, 4, nil)
}

// TestEngineParallelWithGroupMobility repeats the side-by-side check on a
// network with group mobility, whose member reads its leader's live
// position every step: each engine's follower must track its own engine's
// leader, whatever the other engines are doing.
func TestEngineParallelWithGroupMobility(t *testing.T) {
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = 30
	spec.AreaKm2 = 0.3
	spec.Duration = 15 * time.Minute
	spec.MeanMessageInterval = 5 * time.Minute
	spec.Seed = 4

	// Node 1 follows node 0. mutate runs once per engine with identical
	// deterministic inputs, so every engine gets identically built models.
	mutate := func(specs []core.NodeSpec) error {
		bounds := world.SquareKm(spec.AreaKm2)
		rng := sim.NewRNG(spec.Seed).Fork("group-test")
		leader, err := mobility.NewRandomWaypoint(mobility.DefaultPedestrian(bounds), rng.Fork("leader"))
		if err != nil {
			return err
		}
		member, err := mobility.NewGroupMember(mobility.DefaultGroup(), leader, bounds, rng.Fork("member"))
		if err != nil {
			return err
		}
		specs[0].Mobility = leader
		specs[1].Mobility = member
		return nil
	}
	requireSideBySideTraces(t, spec, 4, mutate)
}

// TestTokenConservationAcrossRun: payments only move tokens, so the final
// supply equals nodes × initial tokens.
func TestTokenConservationAcrossRun(t *testing.T) {
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = 40
	spec.AreaKm2 = 0.4
	spec.Duration = 30 * time.Minute
	spec.MaliciousPercent = 10
	spec.MeanMessageInterval = 10 * time.Minute
	eng, err := scenario.BuildEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, n := range eng.Nodes() {
		total += n.Wallet().Balance()
	}
	want := float64(spec.Nodes) * eng.Config().Incentive.InitialTokens
	if math.Abs(total-want) > 1e-6 {
		t.Errorf("token supply = %v, want %v", total, want)
	}
	if res.LedgerTransfers == 0 {
		t.Error("expected some token movement in an incentive run")
	}
}

func TestSelfishNodesLoseContacts(t *testing.T) {
	base := scenario.Default(core.SchemeChitChat)
	base.Nodes = 40
	base.AreaKm2 = 0.4
	base.Duration = 30 * time.Minute
	base.MeanMessageInterval = 10 * time.Minute

	run := func(selfish int) core.Result {
		s := base
		s.SelfishPercent = selfish
		eng, err := scenario.BuildEngine(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	coop := run(0)
	selfish := run(80)
	if coop.RefusedRadioOff != 0 {
		t.Errorf("all-cooperative network lost %d contacts to closed radios", coop.RefusedRadioOff)
	}
	if selfish.RefusedRadioOff == 0 {
		t.Error("selfish network lost no contacts to closed radios")
	}
	if selfish.Transfers >= coop.Transfers {
		t.Errorf("selfish transfers %d >= cooperative %d", selfish.Transfers, coop.Transfers)
	}
}

func TestMaliciousNodesGetRecognized(t *testing.T) {
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = 40
	spec.AreaKm2 = 0.4
	spec.Duration = time.Hour
	spec.MaliciousPercent = 20
	spec.MaliciousLowQuality = true
	spec.MeanMessageInterval = 8 * time.Minute
	eng, err := scenario.BuildEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RatingSeries) == 0 {
		t.Fatal("no rating samples collected")
	}
	final := res.RatingSeries[len(res.RatingSeries)-1].MeanMaliciousRating
	initial := eng.Config().Reputation.InitialRating
	if final >= initial {
		t.Errorf("malicious mean rating = %v, want below the %v prior", final, initial)
	}
	if res.IrrelevantTags == 0 {
		t.Error("malicious population added no irrelevant tags")
	}
}

func TestEnrichmentAddsDestinations(t *testing.T) {
	// A's message is tagged with kw-0 only, but its ground truth includes
	// kw-1, which only node C subscribes to. B (an honest tagger with
	// KnowProb 1) enriches in transit, making C a destination.
	cfg := lineConfig(t, core.SchemeIncentive)
	specs := []core.NodeSpec{
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(100, 100)},
		{
			Profile:  behavior.CooperativeProfile(),
			Mobility: stationary(180, 100),
			Tagger:   &enrich.HonestTagger{KnowProb: 1, MaxTags: 3},
			// B wants kw-0 so the A→B leg is a *delivery* (B is a
			// destination) and B keeps carrying the enriched copy.
			Interests: []string{"kw-0"},
		},
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(260, 100), Interests: []string{"kw-1"}},
	}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	devA, _ := eng.Device(0)
	if _, err := devA.Annotate([]string{"kw-0", "kw-1"}, []string{"kw-0"}, 1<<20, message.PriorityHigh, 0.9); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.RelevantTags == 0 {
		t.Error("honest enrichment added no tags")
	}
	// Both B (kw-0) and C (kw-1, post-enrichment) are destinations; the
	// message counts delivered once but served two pairs.
	devC, _ := eng.Device(2)
	if len(devC.ReceivedMessages()) == 0 {
		t.Error("enrichment did not widen the destination set to reach C")
	}
}

func TestNewEngineValidation(t *testing.T) {
	cfg := core.DefaultConfig()
	if _, err := core.NewEngine(cfg, nil); err == nil {
		t.Error("empty network must fail")
	}
	bad := cfg
	bad.Step = 0
	if _, err := core.NewEngine(bad, lineSpecs()); err == nil {
		t.Error("invalid config must fail")
	}
	badRole := lineSpecs()
	badRole[0].Role = ident.Role(-3)
	if _, err := core.NewEngine(cfg, badRole); err == nil {
		t.Error("invalid role must fail")
	}
}

func TestDeviceUnknownNode(t *testing.T) {
	cfg := lineConfig(t, core.SchemeIncentive)
	eng, err := core.NewEngine(cfg, lineSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Device(99); err == nil {
		t.Error("unknown device must fail")
	}
	if eng.Node(-1) != nil || eng.Node(99) != nil {
		t.Error("unknown node must be nil")
	}
}
