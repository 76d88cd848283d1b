package core_test

import (
	"context"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
	"dtnsim/internal/scenario"
	"dtnsim/internal/sim"
)

// TestEconomicInvariants drives randomised small networks and checks,
// through the event stream, the bounds the incentive design guarantees:
//
//   - every single payment is at most I_m + I_c (a capped award) — the
//     normalised award factor means nobody ever overpays;
//   - no wallet ever goes negative (ledger atomicity);
//   - transfers observed as events equal the metrics counters.
func TestEconomicInvariants(t *testing.T) {
	rng := sim.NewRNG(77)
	for trial := 0; trial < 5; trial++ {
		spec := scenario.Default(core.SchemeIncentive)
		spec.Nodes = 25 + rng.Intn(15)
		spec.AreaKm2 = float64(spec.Nodes) / 100
		spec.Duration = 30 * time.Minute
		spec.SelfishPercent = rng.Intn(40)
		spec.MaliciousPercent = rng.Intn(20)
		spec.MeanMessageInterval = 5 * time.Minute
		spec.Seed = rng.Int63()

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
		res, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		maxPayment := cfg.Incentive.MaxIncentive + cfg.Incentive.TagRewardCap
		for _, e := range buf.Filter(report.Payment) {
			if e.Tokens <= 0 {
				t.Fatalf("trial %d: non-positive payment %v", trial, e.Tokens)
			}
			if e.Tokens > maxPayment+1e-9 {
				t.Fatalf("trial %d: payment %v exceeds I_m + I_c = %v", trial, e.Tokens, maxPayment)
			}
		}
		if res.TokensMin < 0 {
			t.Fatalf("trial %d: negative balance %v", trial, res.TokensMin)
		}
		relays := buf.Count(report.Relayed)
		delivers := buf.Count(report.Delivered)
		if relays != res.RelayTransfers {
			t.Fatalf("trial %d: relay events %d != metric %d", trial, relays, res.RelayTransfers)
		}
		if relays+delivers != res.Transfers {
			t.Fatalf("trial %d: events %d+%d != transfers metric %d",
				trial, relays, delivers, res.Transfers)
		}
		if created := buf.Count(report.MessageCreated); created != res.Created {
			t.Fatalf("trial %d: create events %d != metric %d", trial, created, res.Created)
		}
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
		if m.Holder() != ev.B {
			t.Fatalf("delivered copy holder %v != destination %v", m.Holder(), ev.B)
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
