package core_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/ident"
	"dtnsim/internal/message"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
	"dtnsim/internal/reputation"
	"dtnsim/internal/routing"
)

// deviceHarness builds a three-node line network with devices for each.
func deviceHarness(t *testing.T) (*core.Engine, *core.Device, *core.Device, *core.Device) {
	t.Helper()
	cfg := lineConfig(t, core.SchemeIncentive)
	eng, err := core.NewEngine(cfg, lineSpecs())
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := eng.Device(1)
	c, _ := eng.Device(2)
	return eng, a, b, c
}

func TestDeviceSubscribeAndInterests(t *testing.T) {
	eng, a, _, _ := deviceHarness(t)
	a.Subscribe("kw-3", "kw-4")
	n := eng.Node(0)
	if !n.Interests().HasDirect("kw-3") || !n.Interests().HasDirect("kw-4") {
		t.Error("Subscribe did not declare direct interests")
	}
	if w := n.Interests().Weight("kw-3"); w != 0.5 {
		t.Errorf("subscription weight = %v, want the ChitChat initial 0.5", w)
	}
}

func TestDeviceAnnotateCreatesBufferedMessage(t *testing.T) {
	_, a, _, _ := deviceHarness(t)
	m, err := a.Annotate([]string{"kw-0", "kw-1"}, []string{"kw-0"}, 1024, message.PriorityMedium, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != a.ID() || !m.HasKeyword("kw-0") || m.HasKeyword("kw-1") {
		t.Error("annotated message wrong")
	}
	if !m.Relevant("kw-1") {
		t.Error("ground truth lost")
	}
	if len(a.ReceivedMessages()) != 1 {
		t.Error("message not buffered")
	}
	if _, err := a.Annotate(nil, nil, 0, message.PriorityMedium, 0.7); err == nil {
		t.Error("invalid size must fail")
	}
}

func TestDeviceNeighborsAfterContact(t *testing.T) {
	eng, a, b, _ := deviceHarness(t)
	if len(a.Neighbors()) != 0 {
		t.Error("neighbors before any step")
	}
	if err := eng.RunFor(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// A(100) ↔ B(180) in range; B ↔ C too; A ↔ C not.
	aN := a.Neighbors()
	if len(aN) != 1 || aN[0] != b.ID() {
		t.Errorf("A neighbors = %v, want [n1]", aN)
	}
	bN := b.Neighbors()
	if len(bN) != 2 {
		t.Errorf("B neighbors = %v, want both ends", bN)
	}
}

func TestDeviceDecideDestOrRelay(t *testing.T) {
	_, a, _, _ := deviceHarness(t)
	m, err := a.Annotate([]string{"kw-0"}, []string{"kw-0"}, 1024, message.PriorityHigh, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	role, err := a.DecideDestOrRelay(m, 2) // C subscribes kw-0
	if err != nil {
		t.Fatal(err)
	}
	if role != routing.RoleDestination {
		t.Errorf("role for C = %v, want destination", role)
	}
	role, err = a.DecideDestOrRelay(m, 1) // B has no interests yet
	if err != nil {
		t.Fatal(err)
	}
	if role != routing.RoleNone {
		t.Errorf("role for B = %v, want none", role)
	}
	if _, err := a.DecideDestOrRelay(m, 99); err == nil {
		t.Error("unknown peer must fail")
	}
}

func TestDeviceGetMessagesToForward(t *testing.T) {
	_, a, _, _ := deviceHarness(t)
	m, _ := a.Annotate([]string{"kw-0"}, []string{"kw-0"}, 1024, message.PriorityHigh, 0.9)
	msgs, err := a.GetMessagesToForward(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].ID != m.ID {
		t.Errorf("messages to forward = %v", msgs)
	}
	none, err := a.GetMessagesToForward(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("uninterested peer got offers: %v", none)
	}
	if _, err := a.GetMessagesToForward(99); err == nil {
		t.Error("unknown peer must fail")
	}
}

func TestDeviceDecideBestRelay(t *testing.T) {
	eng, a, _, _ := deviceHarness(t)
	m, _ := a.Annotate([]string{"kw-0"}, []string{"kw-0"}, 1024, message.PriorityHigh, 0.9)
	// Give B a weak and C a strong interest sum.
	eng.Node(1).Interests().Acquire("kw-0", 9, 0)
	eng.Node(1).Interests().SetWeight("kw-0", 0.2)
	best, err := a.DecideBestRelay([]ident.NodeID{1, 2}, m)
	if err != nil {
		t.Fatal(err)
	}
	if best != 2 { // C holds the direct 0.5 weight
		t.Errorf("best relay = %v, want n2", best)
	}
	if _, err := a.DecideBestRelay(nil, m); err == nil {
		t.Error("empty candidate list must fail")
	}
	if _, err := a.DecideBestRelay([]ident.NodeID{99}, m); err == nil {
		t.Error("unknown candidate must fail")
	}
}

func TestDeviceComputeIncentive(t *testing.T) {
	eng, a, _, _ := deviceHarness(t)
	m, _ := a.Annotate([]string{"kw-0"}, []string{"kw-0"}, 1<<20, message.PriorityHigh, 0.9)
	tokens, err := a.ComputeIncentive(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tokens <= 0 {
		t.Errorf("incentive for an interested destination = %v, want > 0", tokens)
	}
	if tokens > eng.Config().Incentive.MaxIncentive {
		t.Errorf("incentive %v exceeds I_m", tokens)
	}
	if _, err := a.ComputeIncentive(m, 99); err == nil {
		t.Error("unknown peer must fail")
	}
}

func TestDeviceRateMessageAndNode(t *testing.T) {
	_, a, b, _ := deviceHarness(t)
	m, _ := b.Annotate([]string{"kw-0"}, []string{"kw-0"}, 1024, message.PriorityHigh, 0.9)
	before := a.RateNode(b.ID())
	ri := a.RateMessage(m, reputation.MessageRatingInputs{
		TagRating:     1,
		Confidence:    1,
		QualityRating: 1,
	})
	if ri != 1 {
		t.Errorf("R_i = %v, want 1", ri)
	}
	after := a.RateNode(b.ID())
	if after >= before {
		t.Errorf("bad rating did not lower the node rating: %v → %v", before, after)
	}
}

// TestDeviceEnrich adds two new tags and one the message already carries:
// both new tags are counted in the report and emitted as TagAdded events.
func TestDeviceEnrich(t *testing.T) {
	cfg := lineConfig(t, core.SchemeIncentive)
	tags := &lifecycleObserver{kinds: []report.Kind{report.TagAdded}}
	cfg.Observers = []obs.Observer{tags}
	eng, err := core.NewEngine(cfg, lineSpecs())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := eng.Device(0)
	m, _ := a.Annotate([]string{"kw-0", "kw-1"}, []string{"kw-0"}, 1024, message.PriorityHigh, 0.9)
	kws, err := a.Enrich(m.ID, "kw-0", "kw-1", "kw-5")
	if err != nil {
		t.Fatal(err)
	}
	if len(kws) != 3 {
		t.Errorf("keywords after enrich = %v", kws)
	}
	if !m.HasKeyword("kw-5") {
		t.Error("enrichment tag missing")
	}
	if got := eng.Result().TagsAdded; got != 2 {
		t.Errorf("TagsAdded = %d, want 2", got)
	}
	want := []report.Event{
		{Kind: report.TagAdded, A: a.ID(), Msg: m.ID, Keyword: "kw-1", Relevant: true},
		{Kind: report.TagAdded, A: a.ID(), Msg: m.ID, Keyword: "kw-5"},
	}
	if !reflect.DeepEqual(tags.events, want) {
		t.Errorf("TagAdded events = %+v, want %+v", tags.events, want)
	}
	if _, err := a.Enrich("nope", "kw-2"); err == nil {
		t.Error("enriching an absent message must fail")
	}
}

// TestDeviceDecayAndGrowOperators pins operators 3 and 4 on the in-place
// RTSR round. A and B are connected; rows staged at t=0 cover each case of
// Algorithm 1, and rows both ends hold directly cover Algorithm 2.
func TestDeviceDecayAndGrowOperators(t *testing.T) {
	eng, a, b, _ := deviceHarness(t)
	if err := eng.RunFor(context.Background(), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	now := eng.Now()
	tab, peer := eng.Node(0).Interests(), eng.Node(1).Interests()
	// kw-17 is held by the connected B, kw-18 by A alone and alive at now
	// (0.9/(2·30) is above the 0.01 prune threshold), kw-19 by A alone and
	// past its death bound (0.4/(2·30) is below it).
	tab.Acquire("kw-17", 9, 0)
	tab.SetWeight("kw-17", 0.6)
	peer.Acquire("kw-17", 9, 0)
	tab.Acquire("kw-18", 9, 0)
	tab.SetWeight("kw-18", 0.9)
	tab.Acquire("kw-19", 9, 0)
	tab.SetWeight("kw-19", 0.4)

	a.DecayWeights()
	if r, _ := tab.Row("kw-17"); r.Weight != 0.6 || r.LastShared != now {
		t.Errorf("shared row after decay = %+v, want weight 0.6 held and T_l = %v", r, now)
	}
	if r, _ := tab.Row("kw-18"); r.Weight != 0.9 || r.LastShared != 0 {
		t.Errorf("unshared row after decay = %+v, want its anchor (0.9 at 0) kept", r)
	}
	if got, want := tab.Weight("kw-18"), 0.9/(2*now.Seconds()); got != want {
		t.Errorf("unshared row observed at %v = %v, want %v", now, got, want)
	}
	if tab.Has("kw-19") {
		t.Error("transient row past its death bound survived the decay")
	}

	// Growth: both ends hold kw-7 directly (ψ = 1), so each side grows by
	// the other's weight · r · dt.
	a.Subscribe("kw-7")
	b.Subscribe("kw-7")
	tab.SetWeight("kw-7", 0.6)
	r := eng.Config().Interest.GrowthRate
	dt := 10 * time.Second
	a.IncrementWeights(dt)
	if got, want := tab.Weight("kw-7"), 0.6+0.5*r*dt.Seconds(); got != want {
		t.Errorf("A's weight after growth = %v, want %v", got, want)
	}
	if got, want := peer.Weight("kw-7"), 0.5+0.6*r*dt.Seconds(); got != want {
		t.Errorf("B's weight after growth = %v, want %v", got, want)
	}
}

func TestDeviceBalanceMatchesWallet(t *testing.T) {
	eng, a, _, _ := deviceHarness(t)
	if a.Balance() != eng.Config().Incentive.InitialTokens {
		t.Errorf("balance = %v", a.Balance())
	}
	if a.Wallet() != eng.Node(a.ID()).Wallet() {
		t.Error("device wallet is not its node's wallet")
	}
}
