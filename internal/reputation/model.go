package reputation

import "dtnsim/internal/ident"

// Model is the reputation interface the engine programs against. The
// paper's DRM (Store) is the primary implementation; BetaStore provides a
// REPSYS-style Bayesian comparator (Paper I §2.2 surveys Beta-distribution
// reputation systems as the main alternative family), so experiments can
// compare detection behaviour across models.
type Model interface {
	// RateSourceMessage records the recipient's judgement of a message's
	// source (tag relevance with confidence + content quality) and
	// returns the message rating R_i.
	RateSourceMessage(src ident.NodeID, in MessageRatingInputs) float64
	// RateRelayMessage records the judgement of an enriching relay's
	// added tags and returns the message rating R_i.
	RateRelayMessage(relay ident.NodeID, in MessageRatingInputs) float64
	// MergeSecondHand folds a peer's opinion of v into this node's.
	MergeSecondHand(v ident.NodeID, theirRating float64)
	// Rating returns this node's current opinion of v on the 0–MaxRating
	// scale.
	Rating(v ident.NodeID) float64
	// Observations returns the first-hand evidence count behind the
	// opinion of v.
	Observations(v ident.NodeID) int
	// ShouldAvoid reports whether transfers from v should be refused.
	ShouldAvoid(v ident.NodeID) bool
	// AwardFactor returns the incentive multiplier in [0, 1] for a
	// delivery by the given node carrying the given path ratings.
	AwardFactor(deliverer ident.NodeID, pathRatings []float64) float64
	// Len returns how many nodes this node holds opinions about.
	Len() int
	// Opinion returns the i-th held opinion, 0 ≤ i < Len(), in ascending
	// node-ID order: the node and this node's rating of it. Gossip reads
	// a store through Len and Opinion in place, without allocating.
	Opinion(i int) (ident.NodeID, float64)
}

var _ Model = (*Store)(nil)
