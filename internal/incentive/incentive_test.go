package incentive

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
	"dtnsim/internal/sim"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"max incentive", func(p *Params) { p.MaxIncentive = 0 }},
		{"initial tokens", func(p *Params) { p.InitialTokens = -1 }},
		{"hardware coeff", func(p *Params) { p.HardwareCoeff = -1 }},
		{"tag fraction zero", func(p *Params) { p.TagRewardFraction = 0 }},
		{"tag fraction one", func(p *Params) { p.TagRewardFraction = 1 }},
		{"tag cap", func(p *Params) { p.TagRewardCap = -1 }},
		{"relay threshold", func(p *Params) { p.RelayThreshold = 0 }},
		{"relay threshold high", func(p *Params) { p.RelayThreshold = 1.5 }},
		{"prepay", func(p *Params) { p.PrepayFraction = -0.1 }},
	}
	for _, tt := range tests {
		p := DefaultParams()
		tt.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", tt.name)
		}
	}
}

func TestWalletBasics(t *testing.T) {
	w, err := NewWallet(ident.NodeID(1), 200)
	if err != nil {
		t.Fatal(err)
	}
	if w.owner != ident.NodeID(1) || w.Balance() != 200 {
		t.Error("wallet state wrong")
	}
	if _, err := NewWallet(1, -5); err == nil {
		t.Error("negative initial balance must fail")
	}
	if !w.CanPay(200) || w.CanPay(200.01) {
		t.Error("CanPay wrong at the boundary")
	}
}

func TestLedgerPay(t *testing.T) {
	l := NewLedger()
	a, _ := NewWallet(1, 100)
	b, _ := NewWallet(2, 0)
	if err := l.Pay(a, b, 30); err != nil {
		t.Fatal(err)
	}
	if a.Balance() != 70 || b.Balance() != 30 {
		t.Errorf("balances = %v, %v", a.Balance(), b.Balance())
	}
	if a.Spent() != 30 || b.Earned() != 30 {
		t.Error("earned/spent not tracked")
	}
	if l.Transfers() != 1 || l.Volume() != 30 {
		t.Error("ledger counters wrong")
	}
}

func TestLedgerPayInsufficient(t *testing.T) {
	l := NewLedger()
	a, _ := NewWallet(1, 10)
	b, _ := NewWallet(2, 0)
	if err := l.Pay(a, b, 20); !errors.Is(err, ErrInsufficient) {
		t.Errorf("error = %v, want ErrInsufficient", err)
	}
	if a.Balance() != 10 || b.Balance() != 0 {
		t.Error("failed payment moved tokens")
	}
}

func TestLedgerPayRejectsNegativeAndSkipsZero(t *testing.T) {
	l := NewLedger()
	a, _ := NewWallet(1, 10)
	b, _ := NewWallet(2, 0)
	if err := l.Pay(a, b, -1); err == nil {
		t.Error("negative payment must fail")
	}
	if err := l.Pay(a, b, 0); err != nil {
		t.Errorf("zero payment must be a no-op, got %v", err)
	}
	if l.Transfers() != 0 {
		t.Error("zero payment recorded as transfer")
	}
}

// TestTokenConservation is the economy's core invariant: any sequence of
// payments conserves the total token supply.
func TestTokenConservation(t *testing.T) {
	check := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		l := NewLedger()
		wallets := make([]*Wallet, 10)
		var total float64
		for i := range wallets {
			initial := float64(rng.Intn(300))
			wallets[i], _ = NewWallet(ident.NodeID(i), initial)
			total += initial
		}
		for op := 0; op < 500; op++ {
			from := wallets[rng.Intn(len(wallets))]
			to := wallets[rng.Intn(len(wallets))]
			if from == to {
				continue
			}
			amount := rng.Range(0, 50)
			_ = l.Pay(from, to, amount) // insufficient is fine; must not mint
			var sum float64
			for _, w := range wallets {
				if w.Balance() < 0 {
					return false
				}
				sum += w.Balance()
			}
			if math.Abs(sum-total) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func calc(t *testing.T) *Calculator {
	t.Helper()
	c, err := NewCalculator(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSoftwareSpecialCase checks Algorithm 3's first branch: P_v = 0, the
// sender outranks the receiver, and the message is high priority — promise
// the maximum.
func TestSoftwareSpecialCase(t *testing.T) {
	c := calc(t)
	is, err := c.Software(SoftwareFactors{
		SumWeights:    0,
		MaxSumWeights: 1,
		Size:          100, MaxSize: 100,
		Quality: 0.5, MaxQuality: 1,
		SenderRole:   ident.RoleCommander,
		ReceiverRole: ident.RoleOperator,
		Priority:     message.PriorityHigh,
	})
	if err != nil {
		t.Fatal(err)
	}
	if is != c.params.MaxIncentive {
		t.Errorf("I_s = %v, want I_m = %v", is, c.params.MaxIncentive)
	}
}

// TestSoftwareGeneralFormula checks the else branch numerically:
// I_s = (¼(S/S_m + Q/Q_m) + ½·P_v/(R_u·P_s))·I_m.
func TestSoftwareGeneralFormula(t *testing.T) {
	c := calc(t)
	f := SoftwareFactors{
		SumWeights:    0.6,
		MaxSumWeights: 1.2,
		Size:          50, MaxSize: 100,
		Quality: 0.4, MaxQuality: 0.8,
		SenderRole:   ident.RoleOperator, // R_u = 2
		ReceiverRole: ident.RoleOperator,
		Priority:     message.PriorityMedium, // P_s = 2
	}
	is, err := c.Software(f)
	if err != nil {
		t.Fatal(err)
	}
	pv := 0.6 / 1.2
	want := (0.25*(0.5+0.5) + 0.5*pv/(2*2)) * c.params.MaxIncentive
	if math.Abs(is-want) > 1e-12 {
		t.Errorf("I_s = %v, want %v", is, want)
	}
}

func TestSoftwareMaxedFactorsEqualMaxIncentive(t *testing.T) {
	c := calc(t)
	is, err := c.Software(SoftwareFactors{
		SumWeights:    1,
		MaxSumWeights: 1,
		Size:          100, MaxSize: 100,
		Quality: 1, MaxQuality: 1,
		SenderRole:   ident.RoleCommander,
		ReceiverRole: ident.RoleCommander,
		Priority:     message.PriorityHigh,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(is-c.params.MaxIncentive) > 1e-12 {
		t.Errorf("maxed I_s = %v, want I_m", is)
	}
}

func TestSoftwareRejectsInvalidInputs(t *testing.T) {
	c := calc(t)
	if _, err := c.Software(SoftwareFactors{SenderRole: 0, ReceiverRole: 1, Priority: message.PriorityHigh}); err == nil {
		t.Error("invalid sender role must fail")
	}
	if _, err := c.Software(SoftwareFactors{SenderRole: 1, ReceiverRole: 1, Priority: 0}); err == nil {
		t.Error("invalid priority must fail")
	}
}

// TestSoftwareFloor checks the floor is Algorithm 3's content term alone,
// that it validates like Software, and that it sits under the special
// case's I_m.
func TestSoftwareFloor(t *testing.T) {
	c := calc(t)
	f := SoftwareFactors{
		SumWeights: 0, MaxSumWeights: 1.2,
		Size: 50, MaxSize: 100,
		Quality: 0.4, MaxQuality: 0.8,
		SenderRole:   ident.RoleCommander,
		ReceiverRole: ident.RoleOperator,
		Priority:     message.PriorityHigh,
	}
	floor, err := c.SoftwareFloor(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.25 * (0.5 + 0.5) * c.params.MaxIncentive; floor != want {
		t.Errorf("SoftwareFloor = %v, want %v", floor, want)
	}
	if is, _ := c.Software(f); is != c.params.MaxIncentive || floor > is {
		t.Errorf("special case I_s = %v, floor %v: want I_m above the floor", is, floor)
	}
	for _, bad := range []SoftwareFactors{
		{SenderRole: 0, ReceiverRole: 1, Priority: message.PriorityHigh, Size: 1, MaxSize: 1},
		{SenderRole: 1, ReceiverRole: 1, Priority: 0, Size: 1, MaxSize: 1},
	} {
		if floor, err := c.SoftwareFloor(bad); err == nil || floor != 0 {
			t.Errorf("SoftwareFloor(%+v) = %v, %v; want 0 and an error", bad, floor, err)
		}
	}
}

func TestHardwareFormulas(t *testing.T) {
	c := calc(t)
	ihSrc := c.HardwareSource(0.1, 10*time.Second)
	want := c.params.HardwareCoeff * 0.1 * 10
	if math.Abs(ihSrc-want) > 1e-12 {
		t.Errorf("HardwareSource = %v, want %v", ihSrc, want)
	}
	ihRelay := c.HardwareRelay(0.1, 0.02, 10*time.Second)
	wantRelay := c.params.HardwareCoeff * 0.12 * 10
	if math.Abs(ihRelay-wantRelay) > 1e-12 {
		t.Errorf("HardwareRelay = %v, want %v", ihRelay, wantRelay)
	}
	if ihRelay <= ihSrc {
		t.Error("a relay (rx + tx) must earn more hardware incentive than a source (tx only)")
	}
}

func TestTotalCapped(t *testing.T) {
	c := calc(t)
	im := c.params.MaxIncentive
	if got := c.Total(im, im); got != im {
		t.Errorf("Total over cap = %v, want %v", got, im)
	}
	if got := c.Total(1, 2); got != 3 {
		t.Errorf("Total = %v, want 3", got)
	}
	if got := c.Total(-5, 1); got != 0 {
		t.Errorf("negative total = %v, want clamped to 0", got)
	}
}

func TestTagReward(t *testing.T) {
	c := calc(t)
	p := c.params
	if got := c.TagReward(0); got != 0 {
		t.Errorf("TagReward(0) = %v", got)
	}
	if got := c.TagReward(-2); got != 0 {
		t.Errorf("TagReward(-2) = %v", got)
	}
	one := c.TagReward(1)
	if math.Abs(one-p.TagRewardFraction*p.MaxIncentive) > 1e-12 {
		t.Errorf("TagReward(1) = %v", one)
	}
	// Enough tags to hit the cap I_c.
	many := c.TagReward(1000)
	if many != p.TagRewardCap {
		t.Errorf("TagReward(1000) = %v, want cap %v", many, p.TagRewardCap)
	}
}

func TestRelayPrepay(t *testing.T) {
	c := calc(t)
	p := c.params
	if _, due := c.RelayPrepay(p.RelayThreshold-0.01, 10); due {
		t.Error("below threshold must not prepay")
	}
	amount, due := c.RelayPrepay(p.RelayThreshold, 10)
	if !due {
		t.Fatal("at threshold must prepay")
	}
	if math.Abs(amount-10*p.PrepayFraction) > 1e-12 {
		t.Errorf("prepay = %v, want %v", amount, 10*p.PrepayFraction)
	}
}

// TestSoftwareBounded checks by property that I_s stays within [0, I_m]
// for any physically sensible inputs.
func TestSoftwareBounded(t *testing.T) {
	c := calc(t)
	rng := sim.NewRNG(17)
	for i := 0; i < 2000; i++ {
		maxSum := rng.Range(0.01, 20)
		f := SoftwareFactors{
			SumWeights:    rng.Range(0, maxSum),
			MaxSumWeights: maxSum,
			Size:          int64(rng.Intn(1000) + 1),
			MaxSize:       1000,
			Quality:       rng.Range(0.01, 1),
			MaxQuality:    1,
			SenderRole:    ident.Role(rng.Intn(3) + 1),
			ReceiverRole:  ident.Role(rng.Intn(3) + 1),
			Priority:      message.Priority(rng.Intn(3) + 1),
		}
		is, err := c.Software(f)
		if err != nil {
			t.Fatal(err)
		}
		if is < 0 || is > c.params.MaxIncentive+1e-9 {
			t.Fatalf("I_s = %v out of [0, I_m] for %+v", is, f)
		}
	}
}
