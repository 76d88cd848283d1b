package core_test

import (
	"context"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/ident"
	"dtnsim/internal/message"
	"dtnsim/internal/scenario"
	"dtnsim/internal/sim"
)

// TestCachedFloorRefusalsMatchFullNegotiation checks every no-token
// refusal the engine settles from an award floor cached in a contact's
// routing memo against a fresh negotiation of the same offer: the floor
// priced again from the current ratings, buffer maxima and copy must equal
// the cached one, and the full negotiation must refuse the offer too.
//
// It runs 40-node incentive networks under both reputation models, with
// 20 % malicious taggers, enrichment, 8 MB buffers (so the senders' maxima
// move) and a starting balance of 2 tokens (so receivers run short within
// minutes). Every two simulated minutes a control subscribes a node to a
// tag of a copy a neighbour holds and has that neighbour enrich the copy
// with one of the node's interests: new destinations, and retags of copies
// the memos may have walked. Refusals from the cache must occur, and so
// must cached refusals in a contact direction after its stamp moved,
// through v's rating of u and through u's maxima: between the two the
// stamp forgot the floors and they were priced again.
func TestCachedFloorRefusalsMatchFullNegotiation(t *testing.T) {
	for _, model := range []core.ReputationModel{core.ReputationDRM, core.ReputationBeta} {
		t.Run(model.String(), func(t *testing.T) {
			spec := scenario.Default(core.SchemeIncentive)
			spec.Nodes = 40
			spec.AreaKm2 = 0.4
			spec.Duration = 40 * time.Minute
			spec.MaliciousPercent = 20
			spec.MeanMessageInterval = 2 * time.Minute
			spec.InitialTokens = 2
			cfg, specs, err := scenario.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.BufferCapacity = 8 << 20
			cfg.ReputationModel = model
			eng, err := core.NewEngine(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}

			type direction struct{ u, v ident.NodeID }
			type stamp struct {
				rating     float64
				maxSize    int64
				maxQuality float64
			}
			last := make(map[direction]stamp)
			var cached, ratingMoves, maximaMoves int
			eng.AuditCachedRefusals(func(u, v *core.Node, m *message.Message, floor float64) {
				cached++
				fresh, full := eng.AwardBounds(u, v, m)
				if fresh != floor {
					t.Fatalf("%v→%v, %s: cached floor %v, priced again %v", u.ID(), v.ID(), m.ID, floor, fresh)
				}
				if w := v.Wallet(); w.Balance() > 0 && w.CanPay(fresh) && w.CanPay(full) {
					t.Fatalf("%v→%v, %s: refused from the cache, but a balance of %v pays floor %v and award %v",
						u.ID(), v.ID(), m.ID, w.Balance(), fresh, full)
				}
				maxSize, maxQuality := u.Buffer().Maxima()
				s := stamp{v.Reputation().Rating(u.ID()), maxSize, maxQuality}
				d := direction{u.ID(), v.ID()}
				if prev, ok := last[d]; ok {
					if prev.rating != s.rating {
						ratingMoves++
					}
					if prev.maxSize != s.maxSize || prev.maxQuality != s.maxQuality {
						maximaMoves++
					}
				}
				last[d] = s
			})

			rng := sim.NewRNG(23)
			var controls int
			for step := 0; step < 20; step++ {
				eng.Control(func(time.Duration) { controls += retagForNeighbour(t, eng, rng) })
				if err := eng.RunFor(context.Background(), 2*time.Minute); err != nil {
					t.Fatal(err)
				}
			}
			res := eng.Result()
			if cached == 0 || ratingMoves == 0 || maximaMoves == 0 || controls == 0 {
				t.Fatalf("%d cached refusals (%d after a rating move, %d after a maxima move), %d controls: the run is vacuous",
					cached, ratingMoves, maximaMoves, controls)
			}
			t.Logf("%d no-token refusals, %d from a cached floor (%d after a rating move, %d after a maxima move), %d controls",
				res.RefusedNoTokens, cached, ratingMoves, maximaMoves, controls)
		})
	}
}

// retagForNeighbour picks a random node; for its first connected
// neighbour holding a tagged copy, the node subscribes to that copy's
// first tag and the neighbour enriches the copy with one of the node's
// other direct interests. It reports whether it found one.
func retagForNeighbour(t *testing.T, eng *core.Engine, rng *sim.RNG) int {
	nodes := eng.Nodes()
	v := nodes[rng.Intn(len(nodes))]
	dv, err := eng.Device(v.ID())
	if err != nil {
		t.Fatal(err)
	}
	for _, uid := range dv.Neighbors() {
		msgs := nodes[uid].Buffer().Messages()
		if len(msgs) == 0 {
			continue
		}
		m := msgs[rng.Intn(len(msgs))]
		if len(m.Keywords()) == 0 {
			continue
		}
		dv.Subscribe(m.Keywords()[0])
		du, err := eng.Device(uid)
		if err != nil {
			t.Fatal(err)
		}
		for _, kw := range v.Interests().Keywords() {
			if v.Interests().HasDirect(kw) && !m.HasKeyword(kw) {
				if _, err := du.Enrich(m.ID, kw); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		return 1
	}
	return 0
}
