package reputation

import (
	"slices"

	"dtnsim/internal/ident"
)

// The Bayesian comparator's evidence weights.
const (
	// GossipWeight discounts second-hand evidence relative to first-hand
	// (REPSYS's deviation-tested second-hand information; we use a fixed
	// discount).
	GossipWeight float64 = 0.3
	// Fade multiplies existing evidence before each new first-hand
	// observation, so recent behaviour dominates (the ITRM fading
	// parameter).
	Fade float64 = 0.98
)

// BetaStore is a Beta-distribution reputation model in the REPSYS family:
// each observed message contributes positive evidence proportional to its
// rating and negative evidence for the remainder; the opinion is the
// posterior mean α/(α+β) with a Beta(1,1) uniform prior, scaled to the
// 0–MaxRating scale. Rows are held like the DRM Store's: sorted by node ID
// in parallel slices, for the nodes the store has heard of.
type BetaStore struct {
	self ident.NodeID
	ids  []ident.NodeID
	rows []betaRow
}

type betaRow struct {
	pos, neg float64 // evidence counts (prior excluded)
	firstN   int
}

var _ Model = (*BetaStore)(nil)

// NewBetaStore creates the comparator store for node self. It judges on
// the DRM's rating scale and avoid bar; the engine prices awards from its
// Rating with AwardFactor and the same params.Alpha as under the DRM.
func NewBetaStore(self ident.NodeID, params Params) (*BetaStore, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &BetaStore{self: self}, nil
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
		r.pos *= Fade
		r.neg *= Fade
		r.firstN++
	}
	fraction = s.clamp01(fraction)
	r.pos += weight * fraction
	r.neg += weight * (1 - fraction)
}

// RateSourceMessage implements Model using the DRM's R_i formula as the
// evidence fraction.
func (s *BetaStore) RateSourceMessage(src ident.NodeID, in MessageRatingInputs) float64 {
	conf := s.clamp01(in.Confidence / MaxConfidence)
	ri := 0.5*(clampRating(in.TagRating)*conf) + 0.5*clampRating(in.QualityRating)
	s.observe(src, ri/MaxRating, 1, true)
	return ri
}

// RateRelayMessage implements Model.
func (s *BetaStore) RateRelayMessage(relay ident.NodeID, in MessageRatingInputs) float64 {
	conf := s.clamp01(in.Confidence / MaxConfidence)
	ri := clampRating(in.TagRating) * conf
	s.observe(relay, ri/MaxRating, 1, true)
	return ri
}

// MergeSecondHand implements Model: gossip arrives as discounted evidence.
func (s *BetaStore) MergeSecondHand(v ident.NodeID, theirRating float64) {
	if v == s.self {
		return
	}
	s.observe(v, clampRating(theirRating)/MaxRating, GossipWeight, false)
}

// Rating implements Model: the Beta posterior mean (uniform prior) on the
// 0–MaxRating scale. With no evidence the prior mean is the scale midpoint,
// matching the DRM's neutral InitialRating.
func (s *BetaStore) Rating(v ident.NodeID) float64 {
	r := s.find(v)
	if r == nil {
		return MaxRating / 2
	}
	return s.posterior(r)
}

// posterior is the row's Beta posterior mean on the 0–MaxRating scale.
func (s *BetaStore) posterior(r *betaRow) float64 {
	return MaxRating * (r.pos + 1) / (r.pos + r.neg + 2)
}

// ShouldAvoid implements Model.
func (s *BetaStore) ShouldAvoid(v ident.NodeID) bool {
	r := s.find(v)
	if r == nil {
		return false
	}
	return r.firstN >= MinObservations && s.posterior(r) < AvoidBelow
}

// Len implements Model.
func (s *BetaStore) Len() int { return len(s.ids) }

// Opinion implements Model.
func (s *BetaStore) Opinion(i int) (ident.NodeID, float64) {
	return s.ids[i], s.posterior(&s.rows[i])
}
