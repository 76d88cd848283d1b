package routing_test

import (
	"context"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/routing"
	"dtnsim/internal/scenario"
)

// TestColumnWalkMatchesCopyWalk checks every router's column walk against
// the copy walk it replaced (routing.ReferenceOffers) on mid-run engine
// states. Each router runs a 40-node incentive network with malicious
// taggers, enrichment and 8 MB buffers, so copies are retagged and evicted
// and receivers hold messages they have dropped. Every 10 simulated
// minutes, each ordered node pair must get the same offers, message for
// message and role for role, from both walks. Which walk runs first
// alternates, so each fills empty tag-ID slots on some pairs. The checks
// must reach the held-and-dropped path scan and, under ChitChat, senders
// whose bit ceiling settles a copy.
func TestColumnWalkMatchesCopyWalk(t *testing.T) {
	for _, name := range scenario.RouterNames() {
		t.Run(name, func(t *testing.T) {
			spec := scenario.Default(core.SchemeIncentive)
			spec.RouterName = name
			spec.Nodes = 40
			spec.AreaKm2 = 0.4
			spec.Duration = 40 * time.Minute
			spec.MaliciousPercent = 20
			spec.MeanMessageInterval = 2 * time.Minute
			cfg, specs, err := scenario.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.BufferCapacity = 8 << 20
			router := cfg.Router
			eng, err := core.NewEngine(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			nodes := eng.Nodes()
			var offers, dropped, ceilings int
			for check := 0; check < 4; check++ {
				if err := eng.RunFor(context.Background(), 10*time.Minute); err != nil {
					t.Fatal(err)
				}
				for _, u := range nodes {
					for _, v := range nodes {
						if u == v {
							continue
						}
						var got, want []routing.Offer
						if (check+int(u.ID())+int(v.ID()))%2 == 0 {
							got = router.SelectOffers(u, v)
							want = routing.ReferenceOffers(router, u, v)
						} else {
							want = routing.ReferenceOffers(router, u, v)
							got = router.SelectOffers(u, v)
						}
						if len(got) != len(want) {
							t.Fatalf("check %d, %v→%v: %d offers, reference %d", check, u.ID(), v.ID(), len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("check %d, %v→%v: offer %d is %s as %v, reference %s as %v",
									check, u.ID(), v.ID(), i, got[i].Msg.ID, got[i].Role, want[i].Msg.ID, want[i].Role)
							}
						}
						offers += len(want)
						for _, m := range u.Buffer().Messages() {
							if v.Buffer().Held(m.Handle) && !v.Buffer().Has(m.Handle) {
								dropped++
							}
							ids := routing.KeywordIDs(m, u.Interests().Interner())
							if name == "chitchat" && !v.Interests().HasDirectAnyID(ids) && u.Interests().AtCeilingIDs(ids) {
								ceilings++
							}
						}
					}
				}
			}
			if offers == 0 || dropped == 0 || (name == "chitchat" && ceilings == 0) {
				t.Fatalf("%d offers, %d copies the receiver held and dropped, %d bit-ceiling verdicts: the states are vacuous",
					offers, dropped, ceilings)
			}
			t.Logf("%d offers, %d held-and-dropped copies, %d bit-ceiling verdicts", offers, dropped, ceilings)
		})
	}
}
