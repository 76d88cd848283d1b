package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
	"dtnsim/internal/scenario"
	"dtnsim/internal/sim"
)

// TestEconomicInvariants is the token and reputation property test across
// scheme × router × reputation model. Each combination runs a small network
// for 30 simulated minutes under its own seeded behaviour mix (selfish and
// malicious shares, low-quality malicious content) and checks at run end:
//
//   - tokens are conserved: Σ wallets = nodes × initial tokens;
//   - no wallet is negative (ledger atomicity);
//   - every rating any node holds lies in [0, MaxRating];
//   - every payment is positive and at most I_m + I_c (the normalised award
//     factor means nobody ever overpays);
//   - no delivery reaches an empty wallet (the zero-token rule), with each
//     wallet replayed from the initial tokens through the payment events;
//   - event counts equal the Result counters.
//
// The ChitChat scheme runs no reputation model, so it runs once per router.
func TestEconomicInvariants(t *testing.T) {
	rng := sim.NewRNG(77)
	paid := 0
	for _, scheme := range []core.Scheme{core.SchemeChitChat, core.SchemeIncentive} {
		for _, router := range scenario.RouterNames() {
			for _, beta := range []bool{false, true} {
				if beta && scheme == core.SchemeChitChat {
					continue
				}
				spec := scenario.Default(scheme)
				spec.RouterName = router
				spec.BetaReputation = beta
				spec.Nodes = 20 + rng.Intn(15)
				spec.AreaKm2 = float64(spec.Nodes) / 100
				spec.Duration = 30 * time.Minute
				spec.SelfishPercent = rng.Intn(40)
				spec.MaliciousPercent = rng.Intn(20)
				spec.MaliciousLowQuality = rng.Intn(2) == 0
				spec.MeanMessageInterval = 5 * time.Minute
				spec.Seed = rng.Int63()
				model := "drm"
				if beta {
					model = "beta"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", scheme, router, model), func(t *testing.T) {
					cfg, specs, err := scenario.Build(spec)
					if err != nil {
						t.Fatal(err)
					}
					paid += checkEconomicInvariants(t, cfg, specs).LedgerTransfers
				})
			}
		}
	}
	if paid == 0 {
		t.Error("no run made a payment; the invariants were checked on an idle economy")
	}
	// Wallets in the runs above never reach exactly zero, so the
	// empty-wallet check also runs on an economy that starts empty: the
	// zero-token rule must then refuse every delivery.
	t.Run("incentive/chitchat/empty-wallets", func(t *testing.T) {
		spec := scenario.Default(core.SchemeIncentive)
		spec.Nodes = 30
		spec.AreaKm2 = 0.3
		spec.Duration = 30 * time.Minute
		spec.MaliciousPercent = 20
		spec.MeanMessageInterval = 5 * time.Minute
		cfg, specs, err := scenario.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Incentive.InitialTokens = 0
		if res := checkEconomicInvariants(t, cfg, specs); res.RefusedNoTokens == 0 {
			t.Error("no delivery was refused for want of tokens; the empty economy offered none")
		}
	})
}

// checkEconomicInvariants runs the configured network, checks the
// invariants at run end, and returns the run's result.
func checkEconomicInvariants(t *testing.T, cfg core.Config, specs []core.NodeSpec) core.Result {
	var buf obs.Buffer
	cfg.Observers = []obs.Observer{&buf}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	nodes := eng.Nodes()

	var sum float64
	for _, n := range nodes {
		b := n.Wallet().Balance()
		if b < 0 {
			t.Errorf("node %v: negative balance %v", n.ID(), b)
		}
		sum += b
	}
	want := float64(len(nodes)) * cfg.Incentive.InitialTokens
	if math.Abs(sum-want) > 1e-9*want {
		t.Errorf("Σ wallets = %v, want %v (nodes × initial tokens)", sum, want)
	}
	maxRating := cfg.Reputation.MaxRating
	for _, n := range nodes {
		for _, m := range nodes {
			if r := n.Reputation().Rating(m.ID()); !(r >= 0 && r <= maxRating) {
				t.Fatalf("node %v rates %v at %v, outside [0, %v]", n.ID(), m.ID(), r, maxRating)
			}
		}
	}

	maxPayment := cfg.Incentive.MaxIncentive + cfg.Incentive.TagRewardCap
	var volume float64
	payments := buf.Filter(report.Payment)
	for _, e := range payments {
		if e.Tokens <= 0 || e.Tokens > maxPayment+1e-9 {
			t.Fatalf("payment %v outside (0, I_m + I_c = %v]", e.Tokens, maxPayment)
		}
		volume += e.Tokens
	}
	if len(payments) != res.LedgerTransfers {
		t.Errorf("payment events %d != ledger transfers %d", len(payments), res.LedgerTransfers)
	}
	if math.Abs(volume-res.LedgerVolume) > 1e-9*math.Max(1, volume) {
		t.Errorf("payment event volume %v != ledger volume %v", volume, res.LedgerVolume)
	}

	// Replay every wallet through the payment events in order. A
	// delivery's own payment, when it pays anything, is the event just
	// before its Delivered event; the zero-token rule reads the balance
	// before that payment, so a destination may spend its last token on
	// the delivery itself.
	balance := make(map[core.NodeID]float64, len(nodes))
	for _, n := range nodes {
		balance[n.ID()] = cfg.Incentive.InitialTokens
	}
	var prev report.Event
	for _, e := range buf.Events {
		switch e.Kind {
		case report.Payment:
			balance[e.A] -= e.Tokens
			balance[e.B] += e.Tokens
		case report.Delivered:
			before := balance[e.B]
			if prev.Kind == report.Payment && prev.A == e.B && prev.B == e.A && prev.Msg == e.Msg {
				before += prev.Tokens
			}
			if before <= 0 {
				t.Errorf("%v: %s delivered by %v to %v, whose wallet held %v", e.At, e.Msg, e.A, e.B, before)
			}
		}
		prev = e
	}
	for _, n := range nodes {
		if got := n.Wallet().Balance(); got != balance[n.ID()] {
			t.Errorf("node %v: balance %v, payment events replay to %v", n.ID(), got, balance[n.ID()])
		}
	}

	relays := buf.Count(report.Relayed)
	delivered := buf.Filter(report.Delivered)
	firsts := map[core.MessageID]bool{}
	for _, e := range delivered {
		firsts[e.Msg] = true
	}
	relevant := 0
	tags := buf.Filter(report.TagAdded)
	for _, e := range tags {
		if e.Relevant {
			relevant++
		}
	}
	for _, c := range []struct {
		name          string
		events, count int
	}{
		{"created", buf.Count(report.MessageCreated), res.Created},
		{"relayed", relays, res.RelayTransfers},
		{"transfers", relays + len(delivered), res.Transfers},
		{"delivered messages", len(firsts), res.Delivered},
		{"aborted", buf.Count(report.TransferAborted), res.AbortedTransfers},
		{"tags", len(tags), res.TagsAdded},
		{"relevant tags", relevant, res.RelevantTags},
	} {
		if c.events != c.count {
			t.Errorf("%s: %d events != Result counter %d", c.name, c.events, c.count)
		}
	}
	return res
}

// TestPathNodesHeldEveryCopy checks the invariant that makes offer
// eligibility's fast path exact: a node appears on a copy's path only if its
// buffer once accepted the message. Small buffers force eviction, so nodes
// drop copies they held. At run end, for every buffered copy, every node on
// its path has the ever-held bit for the copy's handle.
func TestPathNodesHeldEveryCopy(t *testing.T) {
	for _, router := range []string{"chitchat", "epidemic"} {
		t.Run(router, func(t *testing.T) {
			spec := scenario.Default(core.SchemeIncentive)
			spec.RouterName = router
			spec.Nodes = 40
			spec.AreaKm2 = 0.4
			spec.Duration = 30 * time.Minute
			spec.ClassSplit = true
			spec.MeanMessageInterval = 5 * time.Minute
			cfg, specs, err := scenario.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.BufferCapacity = 4 << 20
			eng, err := core.NewEngine(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			dropped, hops := 0, 0
			for _, n := range eng.Nodes() {
				dropped += n.Buffer().Dropped()
				for _, m := range n.Buffer().Messages() {
					for _, hop := range m.Path {
						hops++
						if !eng.Node(hop).Buffer().Held(m.Handle) {
							t.Fatalf("%s at node %v: path %v includes %v, which never held handle %d",
								m.ID, n.ID(), m.Path, hop, m.Handle)
						}
					}
				}
			}
			if dropped == 0 || hops == 0 {
				t.Fatalf("dropped %d, path hops checked %d: the run did not exercise eviction", dropped, hops)
			}
		})
	}
}

// TestContactEventsBalance checks that every recorded ContactDown matches a
// prior ContactUp, and that the live-contact bookkeeping never leaks: after
// the run, ups − downs equals the number of contacts still open.
func TestContactEventsBalance(t *testing.T) {
	spec := scenario.Default(core.SchemeChitChat)
	spec.Nodes = 30
	spec.AreaKm2 = 0.3
	spec.Duration = 30 * time.Minute
	spec.MeanMessageInterval = 10 * time.Minute
	cfg, specs, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf obs.Buffer
	stats := obs.NewContactStats()
	cfg.Observers = []obs.Observer{&buf, stats}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ups := buf.Count(report.ContactUp)
	downs := buf.Count(report.ContactDown)
	if downs > ups {
		t.Fatalf("downs %d exceed ups %d", downs, ups)
	}
	if stats.Completed() != downs {
		t.Errorf("completed contacts %d != down events %d", stats.Completed(), downs)
	}
	if ups == 0 {
		t.Error("no contacts formed in a 30-node network")
	}
}

// TestDeliveredMessagesCarryValidPaths re-checks path integrity on every
// delivery event: the delivering node must be the second-to-last custodian
// of a copy whose path starts at the source.
func TestDeliveredMessagesCarryValidPaths(t *testing.T) {
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = 30
	spec.AreaKm2 = 0.3
	spec.Duration = 30 * time.Minute
	spec.MeanMessageInterval = 5 * time.Minute
	cfg, specs, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf obs.Buffer
	cfg.Observers = []obs.Observer{&buf}
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	delivered := buf.Filter(report.Delivered)
	if len(delivered) == 0 {
		t.Skip("no deliveries this seed")
	}
	for _, ev := range delivered {
		dest := eng.Node(ev.B)
		m := dest.Buffer().Get(ev.Msg)
		if m == nil {
			// The destination may have evicted it later; fine.
			continue
		}
		if m.Path[0] != m.Source {
			t.Fatalf("message %s path %v does not start at source %v", m.ID, m.Path, m.Source)
		}
		if holder := m.Path[len(m.Path)-1]; holder != ev.B {
			t.Fatalf("delivered copy holder %v != destination %v", holder, ev.B)
		}
		seen := map[core.NodeID]bool{}
		for _, hop := range m.Path {
			if seen[hop] {
				t.Fatalf("message %s path %v revisits %v", m.ID, m.Path, hop)
			}
			seen[hop] = true
		}
	}
}
