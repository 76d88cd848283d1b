// Package incentive implements the credit-based half of the paper's
// contribution (Paper I §3.2): token wallets, a conservation-checked ledger,
// and the promise calculation combining software factors (message size,
// quality, priority, interest level, user role — Algorithm 3) with hardware
// factors (Friis-equation energy compensation). It also prices content
// enrichment (per-relevant-tag rewards) and the relay-threshold prepayment.
package incentive

import "fmt"

const (
	// HardwareCoeff is the proportionality constant c in I_h = c·P·t. The
	// paper leaves c free; this value converts the joule scale of a 1 MB
	// transfer at 0.1 W into a small fraction of a token.
	HardwareCoeff float64 = 0.05
	// TagRewardCap is I_c, the cap on the total enrichment reward for one
	// message.
	TagRewardCap float64 = 3
)

// Params tunes the incentive mechanism. Zero values are invalid; use
// DefaultParams as the base.
type Params struct {
	// MaxIncentive is I_m, the cap on any single promise.
	MaxIncentive float64
	// InitialTokens is every node's starting balance (Table 5.1: 200).
	InitialTokens float64
	// TagRewardFraction is z in I_t_k = z·I_m, the reward per relevant
	// added tag, with 0 < z < 1.
	TagRewardFraction float64
	// RelayThreshold is the mean-tag-weight bar above which a receiving
	// relay prepays the forwarder (Table 5.1: 0.8).
	RelayThreshold float64
	// PrepayFraction is the share of the promise the receiving relay pays
	// up front when it clears the relay threshold ("B offers a percentage
	// of incentive token values to A"). The paper does not fix the
	// percentage; 20% is the default.
	PrepayFraction float64
}

// DefaultParams returns the Table 5.1-aligned configuration.
func DefaultParams() Params {
	return Params{
		MaxIncentive:      10,
		InitialTokens:     200,
		TagRewardFraction: 0.1,
		RelayThreshold:    0.8,
		PrepayFraction:    0.2,
	}
}

// Validate checks internal consistency.
func (p Params) Validate() error {
	switch {
	case p.MaxIncentive <= 0:
		return fmt.Errorf("incentive: max incentive must be positive, got %v", p.MaxIncentive)
	case p.InitialTokens < 0:
		return fmt.Errorf("incentive: initial tokens must be non-negative, got %v", p.InitialTokens)
	case p.TagRewardFraction <= 0 || p.TagRewardFraction >= 1:
		return fmt.Errorf("incentive: tag reward fraction z must satisfy 0 < z < 1, got %v", p.TagRewardFraction)
	case p.RelayThreshold <= 0 || p.RelayThreshold > 1:
		return fmt.Errorf("incentive: relay threshold must be in (0, 1], got %v", p.RelayThreshold)
	case p.PrepayFraction < 0 || p.PrepayFraction > 1:
		return fmt.Errorf("incentive: prepay fraction must be in [0, 1], got %v", p.PrepayFraction)
	}
	return nil
}
