// Package reputation implements the Distributed Reputation Model (DRM,
// Paper I §3.3). Each node keeps its own opinion of every node it has heard
// about, on the paper's 0–5 rating scale:
//
//   - message ratings: a recipient rates the source for annotation relevance
//     and content quality, and rates each enriching relay for its added tags
//     (with a confidence factor on the tag judgement);
//   - node ratings: first-hand, a node's rating is the average of the
//     ratings of messages received from it; second-hand ratings received
//     from other nodes are blended with weight α > 0.5 on one's own opinion;
//   - incentive awards scale with the deliverer's reputation and the mean of
//     the ratings carried along the message path.
//
// There is no trusted authority anywhere in the model — every opinion is
// local, which is the property that distinguishes the DRM from PI-style
// centralized clearance.
package reputation

import (
	"fmt"
	"slices"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
)

// The rating scale and the avoid bar both models share.
const (
	// MaxRating is r_m, the top of the rating scale ("the highest rating a
	// node can assign to another node is 5").
	MaxRating float64 = 5
	// MaxConfidence is C_m, the top of the tag-judgement confidence scale.
	MaxConfidence float64 = 1
	// InitialRating is the prior for nodes never rated; 2.5 (the scale
	// midpoint) is neutral.
	InitialRating float64 = 2.5
	// AvoidBelow bars nodes: once a node's rating drops under this bar the
	// holder refuses transfers from it ("enabling other nodes to avoid
	// receiving from malicious nodes").
	AvoidBelow float64 = 1
	// MinObservations is how many first-hand message ratings must back an
	// opinion before the avoid bar applies, so one bad message does not
	// blacklist a node.
	MinObservations = 3
)

// Params tunes both reputation models.
type Params struct {
	// Alpha is the self-weight in the second-hand merge
	// r_{v,u} = (1-α)·r_{v,z} + α·r_{v,u}; the paper requires α > 0.5 so a
	// node trusts its own experience over gossip. The award formula uses
	// the same weight in both models.
	Alpha float64
}

// DefaultParams returns the evaluation configuration.
func DefaultParams() Params {
	return Params{Alpha: 0.7}
}

// Validate checks the paper's 0.5 < α < 1 constraint.
func (p Params) Validate() error {
	if p.Alpha <= 0.5 || p.Alpha >= 1 {
		return fmt.Errorf("reputation: alpha must satisfy 0.5 < α < 1, got %v", p.Alpha)
	}
	return nil
}

// MessageRatingInputs are the human judgements the deployed system collects
// per received message (simulated by the enrichment ground truth).
type MessageRatingInputs struct {
	// TagRating is R_t: the rating for the relevance of the subject's tags
	// on this message, 0..MaxRating.
	TagRating float64
	// Confidence is C: the rater's confidence in the tag judgement,
	// 0..MaxConfidence.
	Confidence float64
	// QualityRating is R_q: the rating for the content quality,
	// 0..MaxRating. Only used when rating the source.
	QualityRating float64
}

// Store is one node's reputation state: its opinion of every other node.
// Rows are kept sorted by node ID in two parallel slices, and only for the
// nodes the store has heard of, so a store in a 20 000-node run stays as
// small as the opinions it holds. Gossip reads them in place, in ID order,
// through Len and Opinion.
type Store struct {
	params Params
	self   ident.NodeID
	ids    []ident.NodeID
	rows   []row
}

type row struct {
	// current is the working rating r_{v,u}.
	current float64
	// msgSum/msgN back the first-hand average of message ratings.
	msgSum float64
	msgN   int
}

// NewStore creates the reputation store for node self.
func NewStore(self ident.NodeID, params Params) (*Store, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Store{params: params, self: self}, nil
}

// find returns v's row, or nil when the store has never heard of v.
func (s *Store) find(v ident.NodeID) *row {
	if i, ok := slices.BinarySearch(s.ids, v); ok {
		return &s.rows[i]
	}
	return nil
}

// rowFor returns v's row, inserting it at the prior when missing. The
// pointer is valid until the next insert.
func (s *Store) rowFor(v ident.NodeID) *row {
	i, ok := slices.BinarySearch(s.ids, v)
	if !ok {
		s.ids = slices.Insert(s.ids, i, v)
		s.rows = slices.Insert(s.rows, i, row{current: InitialRating})
	}
	return &s.rows[i]
}

// RateSourceMessage computes the message rating R_i for a source:
// R_i = ½·(R_t·C/C_m) + ½·R_q, records it first-hand against the source, and
// returns it.
func (s *Store) RateSourceMessage(src ident.NodeID, in MessageRatingInputs) float64 {
	ri := 0.5*(in.TagRating*clampConf(in.Confidence)/MaxConfidence) + 0.5*clampRating(in.QualityRating)
	s.recordMessageRating(src, ri)
	return ri
}

// RateRelayMessage computes the message rating R_i for an enriching relay:
// R_i = R_t·C/C_m, records it first-hand, and returns it.
func (s *Store) RateRelayMessage(relay ident.NodeID, in MessageRatingInputs) float64 {
	ri := clampRating(in.TagRating) * clampConf(in.Confidence) / MaxConfidence
	s.recordMessageRating(relay, ri)
	return ri
}

// clampRating clamps r into the rating scale [0, MaxRating]; both models
// use it.
func clampRating(r float64) float64 {
	if r < 0 {
		return 0
	}
	if r > MaxRating {
		return MaxRating
	}
	return r
}

func clampConf(c float64) float64 {
	if c < 0 {
		return 0
	}
	if c > MaxConfidence {
		return MaxConfidence
	}
	return c
}

// recordMessageRating implements Case 1: the node rating becomes the average
// of all message ratings received from v: r_{v,u} = Σ r_{m_v} / N.
func (s *Store) recordMessageRating(v ident.NodeID, ri float64) {
	r := s.rowFor(v)
	r.msgSum += clampRating(ri)
	r.msgN++
	r.current = r.msgSum / float64(r.msgN)
}

// MergeSecondHand implements Case 2: on receiving z's rating of v, blend
// r_{v,u} = (1-α)·r_{v,z} + α·r_{v,u}. A node never merges gossip about
// itself.
func (s *Store) MergeSecondHand(v ident.NodeID, theirRating float64) {
	if v == s.self {
		return
	}
	r := s.rowFor(v)
	a := s.params.Alpha
	r.current = (1-a)*clampRating(theirRating) + a*r.current
}

// Rating returns this node's current opinion of v (InitialRating when v was
// never observed).
func (s *Store) Rating(v ident.NodeID) float64 {
	if r := s.find(v); r != nil {
		return r.current
	}
	return InitialRating
}

// ShouldAvoid reports whether v's reputation is low enough — with enough
// first-hand evidence — that transfers from v should be refused.
func (s *Store) ShouldAvoid(v ident.NodeID) bool {
	r := s.find(v)
	if r == nil {
		return false
	}
	return r.msgN >= MinObservations && r.current < AvoidBelow
}

// Len returns how many nodes this store holds opinions about.
func (s *Store) Len() int { return len(s.ids) }

// Opinion returns the i-th held opinion in ascending node-ID order: the node
// and this store's rating of it.
func (s *Store) Opinion(i int) (ident.NodeID, float64) { return s.ids[i], s.rows[i].current }

// AwardFactor computes the reputation multiplier in the award formula
//
//	I_v = ((1-α)·(Σ r_{m_v,x})/N + α·r_{v,u}/r_m) · (I + I_t)
//
// pathRatings are the ratings r_{m_v,x} carried with the message from the
// hops in its path; deliverer is v. Both terms are normalised by r_m so the
// factor lies in [0, 1] (the thesis prints the first term unnormalised,
// which would let a 0–5-scale mean multiply the award by up to 5 — the
// normalisation keeps I_v ≤ I + I_t, which the token economy requires).
// With no path ratings the deliverer's own reputation carries full weight.
func (s *Store) AwardFactor(deliverer ident.NodeID, pathRatings []message.PathRating) float64 {
	return awardFactor(s.params.Alpha, s.Rating(deliverer), pathRatings)
}

// awardFactor is the award multiplier both models share (see
// Store.AwardFactor), given α, the deliverer's rating r_{v,u} and the path
// ratings, read in place.
func awardFactor(alpha, rating float64, pathRatings []message.PathRating) float64 {
	own := rating / MaxRating
	if len(pathRatings) == 0 {
		return own
	}
	var sum float64
	for i := range pathRatings {
		sum += clampRating(pathRatings[i].Rating)
	}
	mean := sum / float64(len(pathRatings)) / MaxRating
	return (1-alpha)*mean + alpha*own
}
