package core_test

import (
	"context"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/scenario"
)

// TestAwardFloorNeverExceedsAward checks the bound behind negotiate's
// early no-token refusals, under both reputation models: after a run with
// selfish and malicious nodes, enrichment and path ratings, the award
// floor for every buffered message and every possible receiver is at most
// the full award. The pairs cover source and relay senders, and some must
// meet the bound exactly, so a floor one ulp higher would fail here.
func TestAwardFloorNeverExceedsAward(t *testing.T) {
	for _, beta := range []bool{false, true} {
		spec := scenario.Default(core.SchemeIncentive)
		spec.BetaReputation = beta
		spec.Nodes = 40
		spec.AreaKm2 = 0.4
		spec.Duration = 10 * time.Minute
		spec.SelfishPercent = 20
		spec.MaliciousPercent = 20
		spec.MeanMessageInterval = 5 * time.Minute
		spec.Seed = 3
		cfg, specs, err := scenario.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var source, relay, tight int
		nodes := eng.Nodes()
		for _, u := range nodes {
			for _, m := range u.Buffer().Messages() {
				for _, v := range nodes {
					if v == u {
						continue
					}
					floor, full := eng.AwardBounds(u, v, m)
					if !(floor <= full) {
						t.Fatalf("beta=%v: %s from %v to %v: floor %v above award %v", beta, m.ID, u.ID(), v.ID(), floor, full)
					}
					if m.Source == u.ID() {
						source++
					} else {
						relay++
					}
					if floor == full {
						tight++
					}
				}
			}
		}
		t.Logf("beta=%v: %d source and %d relay pairs, %d at the bound", beta, source, relay, tight)
		if source == 0 || relay == 0 || tight == 0 {
			t.Fatalf("beta=%v: %d source pairs, %d relay pairs, %d at the bound; each must be positive", beta, source, relay, tight)
		}
	}
}
