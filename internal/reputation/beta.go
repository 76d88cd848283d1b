package reputation

import (
	"fmt"
	"slices"

	"dtnsim/internal/ident"
)

// BetaParams tunes the Bayesian comparator.
type BetaParams struct {
	// Alpha keeps the DRM's self-vs-gossip weighting for the award
	// formula (> 0.5).
	Alpha float64
	// MaxRating and MaxConfidence mirror the DRM scale.
	MaxRating     float64
	MaxConfidence float64
	// GossipWeight discounts second-hand evidence relative to first-hand
	// (REPSYS's deviation-tested second-hand information; we use a fixed
	// discount).
	GossipWeight float64
	// Fade multiplies existing evidence before each new first-hand
	// observation, so recent behaviour dominates (the ITRM fading
	// parameter).
	Fade float64
	// AvoidBelow and MinObservations gate avoidance as in the DRM.
	AvoidBelow      float64
	MinObservations int
}

// DefaultBetaParams returns the comparator configuration aligned with the
// DRM defaults.
func DefaultBetaParams() BetaParams {
	return BetaParams{
		Alpha:           0.7,
		MaxRating:       5,
		MaxConfidence:   1,
		GossipWeight:    0.3,
		Fade:            0.98,
		AvoidBelow:      1.0,
		MinObservations: 3,
	}
}

// Validate checks the parameters.
func (p BetaParams) Validate() error {
	switch {
	case p.Alpha <= 0.5 || p.Alpha >= 1:
		return fmt.Errorf("reputation: beta model alpha must satisfy 0.5 < α < 1, got %v", p.Alpha)
	case p.MaxRating <= 0:
		return fmt.Errorf("reputation: beta model max rating must be positive, got %v", p.MaxRating)
	case p.MaxConfidence <= 0:
		return fmt.Errorf("reputation: beta model max confidence must be positive, got %v", p.MaxConfidence)
	case p.GossipWeight < 0 || p.GossipWeight > 1:
		return fmt.Errorf("reputation: gossip weight %v outside [0, 1]", p.GossipWeight)
	case p.Fade <= 0 || p.Fade > 1:
		return fmt.Errorf("reputation: fade %v outside (0, 1]", p.Fade)
	case p.AvoidBelow < 0 || p.AvoidBelow > p.MaxRating:
		return fmt.Errorf("reputation: beta avoid bar %v outside [0, %v]", p.AvoidBelow, p.MaxRating)
	case p.MinObservations < 0:
		return fmt.Errorf("reputation: min observations must be non-negative, got %d", p.MinObservations)
	}
	return nil
}

// BetaStore is a Beta-distribution reputation model in the REPSYS family:
// each observed message contributes positive evidence proportional to its
// rating and negative evidence for the remainder; the opinion is the
// posterior mean α/(α+β) with a Beta(1,1) uniform prior, scaled to the
// 0–MaxRating scale. Rows are held like the DRM Store's: sorted by node ID
// in parallel slices, for the nodes the store has heard of.
type BetaStore struct {
	params BetaParams
	self   ident.NodeID
	ids    []ident.NodeID
	rows   []betaRow
}

type betaRow struct {
	pos, neg float64 // evidence counts (prior excluded)
	firstN   int
}

var _ Model = (*BetaStore)(nil)

// NewBetaStore creates the comparator store for node self.
func NewBetaStore(self ident.NodeID, params BetaParams) (*BetaStore, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &BetaStore{params: params, self: self}, nil
}

// find returns v's row, or nil when the store has never heard of v.
func (s *BetaStore) find(v ident.NodeID) *betaRow {
	if i, ok := slices.BinarySearch(s.ids, v); ok {
		return &s.rows[i]
	}
	return nil
}

// rowFor returns v's row, inserting an empty one when missing. The pointer
// is valid until the next insert.
func (s *BetaStore) rowFor(v ident.NodeID) *betaRow {
	i, ok := slices.BinarySearch(s.ids, v)
	if !ok {
		s.ids = slices.Insert(s.ids, i, v)
		s.rows = slices.Insert(s.rows, i, betaRow{})
	}
	return &s.rows[i]
}

func (s *BetaStore) clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// observe folds one piece of evidence with the given weight.
func (s *BetaStore) observe(v ident.NodeID, fraction, weight float64, firstHand bool) {
	r := s.rowFor(v)
	if firstHand {
		r.pos *= s.params.Fade
		r.neg *= s.params.Fade
		r.firstN++
	}
	fraction = s.clamp01(fraction)
	r.pos += weight * fraction
	r.neg += weight * (1 - fraction)
}

// RateSourceMessage implements Model using the DRM's R_i formula as the
// evidence fraction.
func (s *BetaStore) RateSourceMessage(src ident.NodeID, in MessageRatingInputs) float64 {
	conf := s.clamp01(in.Confidence / s.params.MaxConfidence)
	ri := 0.5*(s.clampRating(in.TagRating)*conf) + 0.5*s.clampRating(in.QualityRating)
	s.observe(src, ri/s.params.MaxRating, 1, true)
	return ri
}

// RateRelayMessage implements Model.
func (s *BetaStore) RateRelayMessage(relay ident.NodeID, in MessageRatingInputs) float64 {
	conf := s.clamp01(in.Confidence / s.params.MaxConfidence)
	ri := s.clampRating(in.TagRating) * conf
	s.observe(relay, ri/s.params.MaxRating, 1, true)
	return ri
}

func (s *BetaStore) clampRating(r float64) float64 {
	if r < 0 {
		return 0
	}
	if r > s.params.MaxRating {
		return s.params.MaxRating
	}
	return r
}

// MergeSecondHand implements Model: gossip arrives as discounted evidence.
func (s *BetaStore) MergeSecondHand(v ident.NodeID, theirRating float64) {
	if v == s.self {
		return
	}
	s.observe(v, s.clampRating(theirRating)/s.params.MaxRating, s.params.GossipWeight, false)
}

// Rating implements Model: the Beta posterior mean (uniform prior) on the
// 0–MaxRating scale. With no evidence the prior mean is the scale midpoint,
// matching the DRM's neutral InitialRating.
func (s *BetaStore) Rating(v ident.NodeID) float64 {
	r := s.find(v)
	if r == nil {
		return s.params.MaxRating / 2
	}
	return s.posterior(r)
}

// posterior is the row's Beta posterior mean on the 0–MaxRating scale.
func (s *BetaStore) posterior(r *betaRow) float64 {
	return s.params.MaxRating * (r.pos + 1) / (r.pos + r.neg + 2)
}

// Observations implements Model.
func (s *BetaStore) Observations(v ident.NodeID) int {
	if r := s.find(v); r != nil {
		return r.firstN
	}
	return 0
}

// ShouldAvoid implements Model.
func (s *BetaStore) ShouldAvoid(v ident.NodeID) bool {
	if s.params.AvoidBelow <= 0 {
		return false
	}
	r := s.find(v)
	if r == nil {
		return false
	}
	return r.firstN >= s.params.MinObservations && s.posterior(r) < s.params.AvoidBelow
}

// AwardFactor implements Model with the DRM award shape, using the Beta
// posterior as the own-opinion term.
func (s *BetaStore) AwardFactor(deliverer ident.NodeID, pathRatings []float64) float64 {
	a := s.params.Alpha
	own := s.Rating(deliverer) / s.params.MaxRating
	if len(pathRatings) == 0 {
		return own
	}
	var sum float64
	for _, r := range pathRatings {
		sum += s.clampRating(r)
	}
	mean := sum / float64(len(pathRatings)) / s.params.MaxRating
	return (1-a)*mean + a*own
}

// Len implements Model.
func (s *BetaStore) Len() int { return len(s.ids) }

// Opinion implements Model.
func (s *BetaStore) Opinion(i int) (ident.NodeID, float64) {
	return s.ids[i], s.posterior(&s.rows[i])
}
