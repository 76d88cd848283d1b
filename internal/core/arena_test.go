package core

import (
	"testing"
	"time"

	"dtnsim/internal/behavior"
	"dtnsim/internal/enrich"
	"dtnsim/internal/mobility"
	"dtnsim/internal/world"
)

// White-box tests for the contact-lifecycle arena (DESIGN.md "Contact
// lifecycle arena & merge-diff"): steady-state contact churn must be
// allocation-free, recycled contacts must come back as the same object with
// fresh state, and the up/down counters must stay symmetric.

// arenaConfig is a two-node scenario with no background workload; the
// profile of the second node is the caller's choice so tests can pick
// open (cooperative) or deterministically closed (selfish, p=0) contacts.
func arenaConfig(t *testing.T, second behavior.Profile) (Config, []NodeSpec) {
	t.Helper()
	vocab, err := enrich.NewVocabulary(20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = SchemeIncentive
	cfg.Area = world.Rect{Width: 1000, Height: 1000}
	cfg.Duration = 10 * time.Minute
	cfg.Workload = DefaultWorkload(vocab)
	cfg.Workload.MeanInterval = 0
	cfg.RatingSampleInterval = 0
	stationary := func(x, y float64) *mobility.Stationary {
		return &mobility.Stationary{At: world.Point{X: x, Y: y}}
	}
	specs := []NodeSpec{
		// Out of radio range of each other so detection never raises the
		// pair on its own; the tests drive contactUp/teardownContacts
		// directly.
		{Profile: behavior.CooperativeProfile(), Mobility: stationary(100, 100)},
		{Profile: second, Mobility: stationary(900, 900)},
	}
	return cfg, specs
}

// TestContactArenaAllocFree asserts the arena paths allocate nothing once
// warm: raw acquire/release for both pools, and a full closed-contact
// up/teardown churn cycle (raise, counter, teardown, compaction, release).
func TestContactArenaAllocFree(t *testing.T) {
	// Selfish with p=0 keeps the radio deterministically shut, so the churn
	// cycle exercises exactly the lifecycle paths (no exchange round).
	cfg, specs := arenaConfig(t, behavior.SelfishProfile(0))
	eng, err := NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}

	// Raw pool cycles.
	c0 := eng.acquireContact()
	eng.releaseContact(c0)
	if avg := testing.AllocsPerRun(100, func() {
		c := eng.acquireContact()
		eng.releaseContact(c)
	}); avg != 0 {
		t.Errorf("contact acquire/release allocates %.1f objects per cycle, want 0", avg)
	}
	tr0 := eng.acquireTransfer()
	eng.releaseTransfer(tr0)
	if avg := testing.AllocsPerRun(100, func() {
		tr := eng.acquireTransfer()
		eng.releaseTransfer(tr)
	}); avg != 0 {
		t.Errorf("transfer acquire/release allocates %.1f objects per cycle, want 0", avg)
	}

	// Full lifecycle churn: one warm-up cycle grows contactList and the
	// downs scratch, then steady-state churn must be allocation-free.
	p := world.Pair{Lo: 0, Hi: 1}
	now := eng.runner.Clock().Now()
	churn := func() {
		c := eng.contactUp(p, now)
		downs := eng.downsScratch[:0]
		downs = append(downs, c)
		eng.downsScratch = downs
		eng.teardownContacts(downs)
	}
	churn()
	if avg := testing.AllocsPerRun(100, churn); avg != 0 {
		t.Errorf("contact churn cycle allocates %.1f objects, want 0", avg)
	}
	if len(eng.contactList) != 0 {
		t.Errorf("contactList has %d entries after churn, want 0", len(eng.contactList))
	}
	if len(eng.contactPool) != 1 {
		t.Errorf("contact pool holds %d entries after churn, want 1", len(eng.contactPool))
	}
}

// TestContactArenaReusesHandles asserts that a recycled contact is the same
// object as its previous life, so churny pairs allocate nothing per
// encounter, and that the re-raise resets its state: the exchange and
// gossip deadlines count from the new encounter, and the teardown marks and
// transfers of the old one are gone.
func TestContactArenaReusesHandles(t *testing.T) {
	cfg, specs := arenaConfig(t, behavior.CooperativeProfile())
	eng, err := NewEngine(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	p := world.Pair{Lo: 0, Hi: 1}
	now := eng.runner.Clock().Now()

	c1 := eng.contactUp(p, now)
	if !c1.open {
		t.Fatal("cooperative pair raised a closed contact")
	}
	downs := append(eng.downsScratch[:0], c1)
	eng.downsScratch = downs
	eng.teardownContacts(downs)

	later := now + time.Minute
	c2 := eng.contactUp(p, later)
	if c2 != c1 {
		t.Error("re-raised contact is a fresh allocation, want the recycled arena object")
	}
	if c2.exchangedAt != later || c2.nextGossip != later+gossipInterval {
		t.Errorf("recycled contact kept stale deadlines: exchangedAt=%v nextGossip=%v, want %v and %v",
			c2.exchangedAt, c2.nextGossip, later, later+gossipInterval)
	}
	if c2.dead || c2.active != nil || len(c2.pending()) != 0 {
		t.Errorf("recycled contact kept stale state: dead=%v active=%v pending=%d", c2.dead, c2.active, len(c2.pending()))
	}
}

// TestContactCounterSymmetry locks the counter semantics: contacts_up and
// contacts_down count every encounter, open or refused, so up − down is
// always the live count; contacts_up_open counts only the raises where both
// radios opened.
func TestContactCounterSymmetry(t *testing.T) {
	for _, tc := range []struct {
		name     string
		second   behavior.Profile
		wantOpen uint64
	}{
		{"open", behavior.CooperativeProfile(), 1},
		{"refused", behavior.SelfishProfile(0), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, specs := arenaConfig(t, tc.second)
			eng, err := NewEngine(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			c := eng.contactUp(world.Pair{Lo: 0, Hi: 1}, eng.runner.Clock().Now())
			if c.open != (tc.wantOpen == 1) {
				t.Fatalf("contact open = %v, want %v", c.open, tc.wantOpen == 1)
			}
			downs := append(eng.downsScratch[:0], c)
			eng.downsScratch = downs
			eng.teardownContacts(downs)

			snap := eng.Snapshot()
			if got := snap.Counter("contacts_up"); got != 1 {
				t.Errorf("contacts_up = %d, want 1", got)
			}
			if got := snap.Counter("contacts_down"); got != 1 {
				t.Errorf("contacts_down = %d, want 1 (symmetric with ups)", got)
			}
			if got := snap.Counter("contacts_up_open"); got != tc.wantOpen {
				t.Errorf("contacts_up_open = %d, want %d", got, tc.wantOpen)
			}
			if got := snap.Counter("contacts_live"); got != 0 {
				t.Errorf("contacts_live = %d, want 0 after teardown", got)
			}
			if got := snap.Counter("contact_pool_free"); got != 1 {
				t.Errorf("contact_pool_free = %d, want 1 after teardown", got)
			}
		})
	}
}
