package routing_test

import (
	"context"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/message"
	"dtnsim/internal/routing"
	"dtnsim/internal/scenario"
)

// walkTestConfig builds the network both walk tests run, under the named
// router: 40 nodes of the incentive scheme with 20 % malicious taggers,
// enrichment and 8 MB buffers, so copies are retagged and evicted and
// receivers hold messages they have dropped.
func walkTestConfig(t *testing.T, router string) (core.Config, []core.NodeSpec) {
	spec := scenario.Default(core.SchemeIncentive)
	spec.RouterName = router
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
	return cfg, specs
}

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
			cfg, specs := walkTestConfig(t, name)
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
							if got[i].Msg != want[i].Msg || got[i].Role != want[i].Role {
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

// oracleRouter checks every SelectOffers call the engine makes against the
// copy walk (routing.ReferenceOffers) and counts what it compared. The
// engine passes the sender view that carries the contact direction's memo,
// so each checked call runs on a memo kept since the contact's last round.
type oracleRouter struct {
	inner  routing.Router
	t      *testing.T
	calls  uint64
	offers int
}

func (r *oracleRouter) Name() string { return r.inner.Name() }

func (r *oracleRouter) SelectOffers(u, v routing.NodeView) []routing.Offer {
	got := r.inner.SelectOffers(u, v)
	want := routing.ReferenceOffers(r.inner, u, v)
	r.calls++
	r.offers += len(want)
	if len(got) != len(want) {
		r.t.Fatalf("call %d, %v→%v: %d offers, reference %d", r.calls, u.ID(), v.ID(), len(got), len(want))
	}
	for i := range want {
		if got[i].Msg != want[i].Msg || got[i].Role != want[i].Role {
			r.t.Fatalf("call %d, %v→%v: offer %d is %s as %v, reference %s as %v",
				r.calls, u.ID(), v.ID(), i, got[i].Msg.ID, got[i].Role, want[i].Msg.ID, want[i].Role)
		}
	}
	return got
}

// awareOracle is an oracleRouter over a router that keeps per-encounter
// state; the engine finds ContactAware by type assertion.
type awareOracle struct {
	*oracleRouter
	aware routing.ContactAware
}

func (r awareOracle) OnContact(a, b routing.NodeView, now time.Duration) {
	r.aware.OnContact(a, b, now)
}

// TestPersistentMemoMatchesCopyWalk checks the routing memos the engine
// keeps between a contact's rounds against the copy walk, on every routing
// call of a run, for every router. On walkTestConfig's network, 8 MB
// buffers evict on most inserts (the buffer revisions), enrichment and
// malicious taggers retag relayed copies, and transfers grow receivers'
// buffers (the receiver's length). Every two simulated minutes a control changes what the memos
// must notice between two rounds of a live contact: a receiver subscribes
// to a tag of a copy its neighbour holds and would not yet deliver it (the
// receiver's direct-row count), and a sender enriches a copy its neighbour
// may be offered with one of that neighbour's direct interests (a retag of
// a copy a memo has walked). Both the incremental walk and the rebuild
// must run, and the engine must count one walk per checked call.
//
// The engine gives copies a Spray-and-Wait budget only when its router
// is *routing.SprayAndWait, which the oracle wrapper hides; so under
// Spray-and-Wait the controls also set every buffered copy's budget
// (rebudget), flipping copies between the relay and the wait phase
// between rounds, which the memo must not keep.
func TestPersistentMemoMatchesCopyWalk(t *testing.T) {
	for _, name := range scenario.RouterNames() {
		t.Run(name, func(t *testing.T) {
			cfg, specs := walkTestConfig(t, name)
			oracle := &oracleRouter{inner: cfg.Router, t: t}
			cfg.Router = oracle
			if aware, ok := oracle.inner.(routing.ContactAware); ok {
				cfg.Router = awareOracle{oracleRouter: oracle, aware: aware}
			}
			eng, err := core.NewEngine(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			_, spray := oracle.inner.(*routing.SprayAndWait)
			var subscribed, enriched int
			for step := 0; step < 20; step++ {
				eng.Control(func(time.Duration) {
					subscribed += subscribeToNeighbourCopy(t, eng)
					enriched += enrichForNeighbour(t, eng)
					if spray {
						rebudget(eng, step)
					}
				})
				if err := eng.RunFor(context.Background(), 2*time.Minute); err != nil {
					t.Fatal(err)
				}
			}
			snap := eng.Snapshot()
			walks, rebuilds := snap.Counter("route_walks"), snap.Counter("route_rebuilds")
			if walks != oracle.calls {
				t.Fatalf("route_walks = %d over %d checked calls", walks, oracle.calls)
			}
			if oracle.offers == 0 || rebuilds == 0 || rebuilds == walks || subscribed == 0 || enriched == 0 {
				t.Fatalf("%d offers, %d walks, %d rebuilds, %d subscriptions, %d enrichments: the run is vacuous",
					oracle.offers, walks, rebuilds, subscribed, enriched)
			}
			t.Logf("%d calls, %d offers, %d rebuilds, %d subscriptions, %d enrichments",
				walks, oracle.offers, rebuilds, subscribed, enriched)
		})
	}
}

// rebudget sets each buffered copy's Spray-and-Wait budget to 0, 1 or 2
// copies, by its handle and the step.
func rebudget(eng *core.Engine, step int) {
	for _, n := range eng.Nodes() {
		for _, m := range n.Buffer().Messages() {
			m.CopiesLeft = (int(m.Handle) + step) % 3
		}
	}
}

// eligibleNonDestination returns the first copy in u's buffer that v does
// not hold and for which v is not yet a destination, or nil.
func eligibleNonDestination(u, v *core.Node) *message.Message {
	for _, m := range u.Buffer().Messages() {
		if v.Buffer().Held(m.Handle) {
			continue
		}
		if !v.Interests().HasDirectAnyID(routing.KeywordIDs(m, u.Interests().Interner())) && len(m.Keywords()) > 0 {
			return m
		}
	}
	return nil
}

// subscribeToNeighbourCopy subscribes the first node, in ID order, that
// has a connected neighbour holding a copy it could be offered but would
// not receive as a destination, to that copy's first tag. It reports
// whether it found one.
func subscribeToNeighbourCopy(t *testing.T, eng *core.Engine) int {
	nodes := eng.Nodes()
	for _, v := range nodes {
		d, err := eng.Device(v.ID())
		if err != nil {
			t.Fatal(err)
		}
		for _, uid := range d.Neighbors() {
			if m := eligibleNonDestination(nodes[uid], v); m != nil {
				d.Subscribe(m.Keywords()[0])
				return 1
			}
		}
	}
	return 0
}

// enrichForNeighbour tags a copy, in the first sender (by ID) that holds
// one a connected neighbour could be offered but would not receive as a
// destination, with one of that neighbour's direct interests, making the
// neighbour a destination for it. It reports whether it found one.
func enrichForNeighbour(t *testing.T, eng *core.Engine) int {
	nodes := eng.Nodes()
	for _, u := range nodes {
		d, err := eng.Device(u.ID())
		if err != nil {
			t.Fatal(err)
		}
		for _, vid := range d.Neighbors() {
			v := nodes[vid]
			m := eligibleNonDestination(u, v)
			if m == nil {
				continue
			}
			for _, kw := range v.Interests().Keywords() {
				if v.Interests().HasDirect(kw) && !m.HasKeyword(kw) {
					if _, err := d.Enrich(m.ID, kw); err != nil {
						t.Fatal(err)
					}
					return 1
				}
			}
		}
	}
	return 0
}
