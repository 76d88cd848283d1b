package incentive

import (
	"fmt"
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
)

// SoftwareFactors are the user- and content-centric inputs to Algorithm 3
// ("Calculate incentive promised from user u to user v due to software
// factors"). Symbols follow Table 3.1.
type SoftwareFactors struct {
	// SumWeights is Σw: the sum of weights of the message's interests in
	// the receiving device v, as known by the sender u.
	SumWeights float64
	// MaxSumWeights is w_m: the maximum of that sum across all devices
	// currently connected to u for this message.
	MaxSumWeights float64
	// Size is S, the message size, and MaxSize is S_m, the largest message
	// in u's buffer.
	Size, MaxSize int64
	// Quality is Q and MaxQuality is Q_m, the best quality among u's
	// buffered messages.
	Quality, MaxQuality float64
	// SenderRole is R_u and ReceiverRole is R_v (1 = top of hierarchy).
	SenderRole, ReceiverRole ident.Role
	// Priority is P_s, the source-assigned priority (1 = high).
	Priority message.Priority
}

// Calculator prices promises and rewards. It is stateless apart from its
// parameters, so one instance serves the whole network.
type Calculator struct {
	params Params
}

// NewCalculator validates params and returns a calculator.
func NewCalculator(params Params) (*Calculator, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Calculator{params: params}, nil
}

// Software computes I_s per Algorithm 3:
//
//	if P_v = 0 ∧ R_u < R_v ∧ P_s = high:  I_s = I_m
//	else: P_v = Σw/w_m
//	      I_s = (¼·(S/S_m + Q/Q_m) + ½·P_v/(R_u·P_s)) · I_m
//
// The special case promises the maximum to a receiver that cannot deliver
// right now (P_v = 0) when a higher-ranked sender pushes a high-priority
// message — the receiver may still acquire the TSRs and deliver later.
//
// The ½ term's denominator is printed "R_u·P_u" in the thesis; Table 3.1
// defines no P_u, and the worked battlefield example and the factor-of-I_m
// bound only hold with P_s (the source priority), so P_s is used here.
func (c *Calculator) Software(f SoftwareFactors) (float64, error) {
	if err := f.validate(); err != nil {
		return 0, err
	}
	if f.SumWeights == 0 {
		if f.SenderRole < f.ReceiverRole && f.Priority == message.PriorityHigh {
			return c.params.MaxIncentive, nil
		}
		// No delivery probability and no rank/priority override: the
		// else-branch with P_v = 0 drops the interest term entirely.
	}
	var pv float64
	if f.MaxSumWeights > 0 {
		pv = f.SumWeights / f.MaxSumWeights
	}
	is := (f.contentTerm() + 0.5*pv/(float64(f.SenderRole)*float64(f.Priority))) * c.params.MaxIncentive
	return is, nil
}

// SoftwareFloor is Software without its P_v term: ¼·(S/S_m + Q/Q_m)·I_m,
// which reads neither weight sum. It validates like Software and is zero
// on error.
//
// With S ≤ S_m, Q ≤ Q_m and non-negative weight sums it never exceeds
// Software. The floor is ½·I_m at most, below the special case's I_m;
// otherwise it evaluates the same content term with the same operations
// and only drops a non-negative addend, and rounding is monotone. The
// engine refuses a destination that cannot pay even the award this floor
// implies before it sums any weights (DESIGN.md "Exact early exits in the
// contact round").
func (c *Calculator) SoftwareFloor(f SoftwareFactors) (float64, error) {
	if err := f.validate(); err != nil {
		return 0, err
	}
	return f.contentTerm() * c.params.MaxIncentive, nil
}

// validate rejects roles and priorities outside their defined levels.
func (f SoftwareFactors) validate() error {
	if !f.SenderRole.Valid() || !f.ReceiverRole.Valid() {
		return fmt.Errorf("incentive: invalid roles R_u=%d R_v=%d", f.SenderRole, f.ReceiverRole)
	}
	if !f.Priority.Valid() {
		return fmt.Errorf("incentive: invalid priority %d", f.Priority)
	}
	return nil
}

// contentTerm is Algorithm 3's ¼·(S/S_m + Q/Q_m); a zero maximum drops its
// ratio.
func (f SoftwareFactors) contentTerm() float64 {
	var sizeTerm, qualTerm float64
	if f.MaxSize > 0 {
		sizeTerm = float64(f.Size) / float64(f.MaxSize)
	}
	if f.MaxQuality > 0 {
		qualTerm = f.Quality / f.MaxQuality
	}
	return 0.25 * (sizeTerm + qualTerm)
}

// HardwareSource computes I_h = c·P_t·t for a source delivering directly to
// the destination: compensation for transmit energy only.
func (c *Calculator) HardwareSource(txPower float64, elapsed time.Duration) float64 {
	return HardwareCoeff * txPower * elapsed.Seconds()
}

// HardwareRelay computes I_h = c·(P_t+P_r)·t for a relay delivering to the
// destination: the relay spent receive energy acquiring the message and
// transmit energy forwarding it, and is compensated for both.
func (c *Calculator) HardwareRelay(txPower, rxPower float64, elapsed time.Duration) float64 {
	return HardwareCoeff * (txPower + rxPower) * elapsed.Seconds()
}

// Total combines the factors: I = min(I_s + I_h, I_m).
func (c *Calculator) Total(is, ih float64) float64 {
	total := is + ih
	if total > c.params.MaxIncentive {
		return c.params.MaxIncentive
	}
	if total < 0 {
		return 0
	}
	return total
}

// TagReward computes I_t = min(Σ I_t_k, I_c) with I_t_k = z·I_m for each of
// the relevantTags the destination judged relevant. Irrelevant tags earn
// nothing ("if a relay adds n additional keywords and only x are relevant
// for a destination, the destination will only compensate for x tags").
func (c *Calculator) TagReward(relevantTags int) float64 {
	if relevantTags <= 0 {
		return 0
	}
	total := float64(relevantTags) * c.params.TagRewardFraction * c.params.MaxIncentive
	if total > TagRewardCap {
		return TagRewardCap
	}
	return total
}

// RelayPrepay returns the upfront payment a receiving relay owes the
// forwarder when its mean tag weight meets the relay threshold, and whether
// the threshold was met.
func (c *Calculator) RelayPrepay(meanTagWeight, promise float64) (float64, bool) {
	if meanTagWeight < c.params.RelayThreshold {
		return 0, false
	}
	return promise * c.params.PrepayFraction, true
}
