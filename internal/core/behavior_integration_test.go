package core_test

import (
	"context"
	"testing"
	"time"

	"dtnsim/internal/behavior"
	"dtnsim/internal/core"
	"dtnsim/internal/enrich"
	"dtnsim/internal/message"
	"dtnsim/internal/mobility"
	"dtnsim/internal/reputation"
	"dtnsim/internal/routing"
	"dtnsim/internal/scenario"
	"dtnsim/internal/world"
)

// TestGossipSpreadsReputation: D never receives anything from the bad
// actor, but learns its low rating second-hand from a destination that did.
func TestGossipSpreadsReputation(t *testing.T) {
	cfg := lineConfig(t, core.SchemeIncentive)
	cfg.Duration = 20 * time.Minute
	specs := []core.NodeSpec{
		// Source.
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(100, 100)},
		// Bad actor: forges tags on everything it relays.
		{
			Profile:  behavior.MaliciousProfile(false),
			Mobility: stationary(180, 100),
		},
		// Destination: receives from the bad actor, judges it, gossips.
		{
			Profile:   behavior.CooperativeProfile(),
			Mobility:  stationary(260, 100),
			Interests: []string{"kw-0"},
		},
		// Bystander: connected only to the destination.
		{
			Profile:  behavior.CooperativeProfile(),
			Mobility: stationary(340, 100),
		},
	}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	devA, _ := eng.Device(0)
	// A stream of messages so the destination accumulates first-hand
	// evidence about the forger.
	for i := 0; i < 8; i++ {
		if _, err := devA.Annotate([]string{"kw-0", "kw-1"}, []string{"kw-0"}, 256<<10, message.PriorityHigh, 0.9); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	dest := eng.Node(2)
	bystander := eng.Node(3)
	initial := reputation.InitialRating
	destOpinion := dest.Reputation().Rating(1)
	if destOpinion >= initial {
		t.Fatalf("destination's first-hand opinion of the forger = %v, want below %v", destOpinion, initial)
	}
	byOpinion := bystander.Reputation().Rating(1)
	if byOpinion >= initial {
		t.Errorf("bystander's gossiped opinion of the forger = %v, want below the %v prior", byOpinion, initial)
	}
}

// TestTransferAbortsWhenContactDrops: a walker passes through range briefly
// with a message too large to finish transferring; the abort is recorded
// and the message is not delivered.
func TestTransferAbortsWhenContactDrops(t *testing.T) {
	cfg := lineConfig(t, core.SchemeChitChat)
	cfg.Duration = 5 * time.Minute
	// 25 MB at 250 kB/s needs 100 s of contact; the flyby gives far less.
	bigSize := int64(25 << 20)
	flyby, err := mobility.NewWaypoints([]mobility.TimedPoint{
		{T: 0, P: world.Point{X: 180, Y: 100}},
		{T: 20 * time.Second, P: world.Point{X: 900, Y: 900}},
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := []core.NodeSpec{
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(100, 100)},
		{Profile: behavior.CooperativeProfile(), Mobility: flyby, Interests: []string{"kw-0"}},
	}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	devA, _ := eng.Device(0)
	if _, err := devA.Annotate([]string{"kw-0"}, []string{"kw-0"}, bigSize, message.PriorityHigh, 0.9); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.AbortedTransfers == 0 {
		t.Error("expected an aborted transfer")
	}
	if res.Delivered != 0 {
		t.Error("oversized flyby transfer should not deliver")
	}
}

// TestSprayAndWaitIntegration: the incentive layer composes with the spray
// router; the copy counter splits across handovers and deliveries happen.
func TestSprayAndWaitIntegration(t *testing.T) {
	const budget = routing.SprayCopies
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = 30
	spec.AreaKm2 = 0.3
	spec.Duration = 30 * time.Minute
	spec.MeanMessageInterval = 5 * time.Minute
	spec.RouterName = "spray-and-wait"
	eng, err := scenario.BuildEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Created == 0 || res.Delivered == 0 {
		t.Fatalf("spray run produced created=%d delivered=%d", res.Created, res.Delivered)
	}
	// Every buffered copy holds at least one of the budget's copies and at
	// most L: a spray relay that would leave its receiver none is refused.
	for _, n := range eng.Nodes() {
		for _, m := range n.Buffer().Messages() {
			if m.CopiesLeft < 1 || m.CopiesLeft > budget {
				t.Fatalf("message %s copies = %d, want within [1, %d]", m.ID, m.CopiesLeft, budget)
			}
		}
	}
}

// TestEpidemicDeliversAtLeastAsMuchAsDirect: the classic ordering between
// the flooding ceiling and the zero-replication floor on identical worlds.
func TestEpidemicDeliversAtLeastAsMuchAsDirect(t *testing.T) {
	run := func(router string) core.Result {
		spec := scenario.Default(core.SchemeChitChat)
		spec.Nodes = 30
		spec.AreaKm2 = 0.3
		spec.Duration = 30 * time.Minute
		spec.MeanMessageInterval = 5 * time.Minute
		spec.RouterName = router
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
	epidemic := run("epidemic")
	direct := run("direct")
	if epidemic.Delivered < direct.Delivered {
		t.Errorf("epidemic delivered %d < direct %d", epidemic.Delivered, direct.Delivered)
	}
	if epidemic.RelayTransfers <= direct.RelayTransfers {
		t.Errorf("epidemic relay traffic %d <= direct %d (flooding must cost more)",
			epidemic.RelayTransfers, direct.RelayTransfers)
	}
}

// TestReputationAblationLetsForgersEarn: with the DRM off, the avoid bar
// and the award discount vanish, so malicious taggers collect more tokens.
func TestReputationAblationLetsForgersEarn(t *testing.T) {
	run := func(disable bool) float64 {
		spec := scenario.Default(core.SchemeIncentive)
		spec.Nodes = 40
		spec.AreaKm2 = 0.4
		spec.Duration = time.Hour
		spec.MaliciousPercent = 20
		spec.MeanMessageInterval = 8 * time.Minute
		spec.DisableReputation = disable
		eng, err := scenario.BuildEngine(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var malicious float64
		for _, n := range eng.Nodes() {
			if n.Profile().Kind == behavior.Malicious {
				malicious += n.Wallet().Earned()
			}
		}
		return malicious
	}
	withDRM := run(false)
	withoutDRM := run(true)
	if withoutDRM <= withDRM {
		t.Errorf("malicious earnings with DRM %v >= without %v; the DRM should cut them",
			withDRM, withoutDRM)
	}
}

// TestEnrichmentDisabledAddsNoTags is the enrichment ablation's invariant.
func TestEnrichmentDisabledAddsNoTags(t *testing.T) {
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = 30
	spec.AreaKm2 = 0.3
	spec.Duration = 30 * time.Minute
	spec.MeanMessageInterval = 5 * time.Minute
	spec.DisableEnrichment = true
	eng, err := scenario.BuildEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.TagsAdded != 0 {
		t.Errorf("enrichment disabled but %d tags added", res.TagsAdded)
	}
}

// TestBatteryBudgetKillsRadios: with a tiny radio energy budget, nodes die
// and delivery collapses relative to the unlimited run on the same seed.
func TestBatteryBudgetKillsRadios(t *testing.T) {
	run := func(budget float64) core.Result {
		spec := scenario.Default(core.SchemeChitChat)
		spec.Nodes = 30
		spec.AreaKm2 = 0.3
		spec.Duration = 45 * time.Minute
		spec.MeanMessageInterval = 5 * time.Minute
		spec.BatteryJoules = budget
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
	unlimited := run(0)
	tiny := run(0.2)
	if unlimited.DeadRadios != 0 {
		t.Errorf("unlimited budget killed %d radios", unlimited.DeadRadios)
	}
	if tiny.DeadRadios == 0 {
		t.Error("tiny budget killed no radios")
	}
	if tiny.Transfers >= unlimited.Transfers {
		t.Errorf("tiny-budget transfers %d >= unlimited %d", tiny.Transfers, unlimited.Transfers)
	}
}

// TestDefaultTaggersFollowDisposition: the engine assigns malicious taggers
// to malicious profiles and honest ones to the rest.
func TestDefaultTaggersFollowDisposition(t *testing.T) {
	vocab, err := enrich.NewVocabulary(20)
	if err != nil {
		t.Fatal(err)
	}
	_ = vocab
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = 30
	spec.AreaKm2 = 0.3
	spec.Duration = 45 * time.Minute
	spec.MaliciousPercent = 30
	spec.MeanMessageInterval = 5 * time.Minute
	eng, err := scenario.BuildEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.RelevantTags == 0 {
		t.Error("no honest enrichment happened")
	}
	if res.IrrelevantTags == 0 {
		t.Error("no malicious tagging happened")
	}
}
