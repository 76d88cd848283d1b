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
	"dtnsim/internal/interest"
	"dtnsim/internal/message"
	"dtnsim/internal/mobility"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
	"dtnsim/internal/reputation"
	"dtnsim/internal/scenario"
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
		t.Fatalf("delivered = %d, want 1 (result: %+v)", res.Delivered, res)
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

// TestZeroTokenRuleBarsZeroAward: an empty wallet cannot act as a
// destination even when the award it would pay is zero. The destination
// rates the source's one message 0, too few ratings for the avoid bar to
// apply, so its award factor, and with it the award, is 0.
func TestZeroTokenRuleBarsZeroAward(t *testing.T) {
	cfg := lineConfig(t, core.SchemeIncentive)
	cfg.Incentive.InitialTokens = 0
	eng, err := core.NewEngine(cfg, []core.NodeSpec{
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(100, 100)},
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(180, 100), Interests: []string{"kw-0"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := eng.Device(0)
	m, err := src.Annotate([]string{"kw-0"}, []string{"kw-0"}, 1<<20, message.PriorityHigh, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := eng.Device(1)
	dst.RateMessage(m, reputation.MessageRatingInputs{Confidence: 1})
	if f := eng.Node(1).Reputation().AwardFactor(0, m.PathRatings); f != 0 {
		t.Fatalf("award factor = %v, want 0", f)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 {
		t.Errorf("delivered = %d to an empty wallet, want 0", res.Delivered)
	}
	if res.RefusedNoTokens == 0 {
		t.Error("expected zero-token refusals to be recorded")
	}
}

// TestRTSRClosedFormOverOneContact checks the engine's RTSR rounds against
// Algorithms 1–2 in closed form. Two ChitChat nodes 80 m apart both
// subscribe kw-0; the second leaves at 75 s. The rounds run at contact-up
// (1 s, crediting one 1 s step) and every 10 s after (11 s … 71 s,
// crediting 10 s each), so at each round both observed weights are
// w₁ = 0.5 + 0.5·r·1 and w_{k+1} = min(1, w_k + w_k·r·10), saturating at
// 51 s. Once the contact is over, node 0 observes the last round's weight
// decaying from T_l = 71 s: (w − 0.5)/(β·(t − 71 s)) + 0.5. Reads between
// two rounds of the live contact are not checked: there the connected
// peer's rows decay until the next round refreshes them.
func TestRTSRClosedFormOverOneContact(t *testing.T) {
	cfg := lineConfig(t, core.SchemeChitChat)
	leave, err := mobility.NewWaypoints([]mobility.TimedPoint{
		{T: 0, P: world.Point{X: 180, Y: 100}},
		{T: 75 * time.Second, P: world.Point{X: 900, Y: 900}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(cfg, []core.NodeSpec{
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(100, 100), Interests: []string{"kw-0"}},
		{Profile: behavior.CooperativeProfile(), Mobility: leave, Interests: []string{"kw-0"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	runTo := func(at time.Duration) {
		t.Helper()
		if err := eng.RunFor(ctx, at-eng.Now()); err != nil {
			t.Fatal(err)
		}
	}
	r := cfg.Interest.GrowthRate
	const lastRound = 71 * time.Second
	w := 0.5 + 0.5*r*1
	for at := time.Second; at <= lastRound; at += 10 * time.Second {
		if at > time.Second {
			w = math.Min(1, w+w*r*10)
		}
		runTo(at)
		for id := ident.NodeID(0); id < 2; id++ {
			if got := eng.Node(id).Interests().Weight("kw-0"); got != w {
				t.Errorf("%v: node %v reads %v at the round, want %v", at, id, got, w)
			}
		}
	}
	if w != 1 {
		t.Fatalf("weight after the last round = %v, want saturated at 1", w)
	}
	dev, _ := eng.Device(0)
	for at := 75 * time.Second; at <= 120*time.Second; at += time.Second {
		runTo(at)
		if n := dev.Neighbors(); len(n) != 0 {
			t.Fatalf("%v: node 0 still connected to %v", at, n)
		}
		want := (w-0.5)/(interest.Beta*(at-lastRound).Seconds()) + 0.5
		if got := eng.Node(0).Interests().Weight("kw-0"); got != want {
			t.Errorf("%v: node 0 reads %v after the contact, want %v", at, got, want)
		}
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
		t.Errorf("same-seed runs diverged:\n%+v\n%+v", r1, r2)
	}
	spec.Seed = 8
	r3 := run()
	if r1.Transfers == r3.Transfers && r1.LedgerVolume == r3.LedgerVolume && r1.Created == r3.Created {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

// runTrace builds and runs spec and returns the complete event trace. It
// reports errors rather than failing the test, so it can run off the test
// goroutine.
func runTrace(spec scenario.Spec) ([]report.Event, error) {
	cfg, specs, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	var buf obs.Buffer
	cfg.Observers = []obs.Observer{&buf}
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
func requireSideBySideTraces(t *testing.T, spec scenario.Spec, n int) {
	t.Helper()
	want, err := runTrace(spec)
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
			traces[i], errs[i] = runTrace(spec)
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
	requireSideBySideTraces(t, spec, 4)
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
	initial := reputation.InitialRating
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
