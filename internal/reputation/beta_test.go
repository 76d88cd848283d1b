package reputation

import (
	"math"
	"testing"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
)

func betaStore(t *testing.T) *BetaStore {
	t.Helper()
	s, err := NewBetaStore(ident.NodeID(0), DefaultBetaParams())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBetaParamsValidate(t *testing.T) {
	if err := DefaultBetaParams().Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []func(*BetaParams){
		func(p *BetaParams) { p.Alpha = 0.5 },
		func(p *BetaParams) { p.MaxRating = 0 },
		func(p *BetaParams) { p.MaxConfidence = 0 },
		func(p *BetaParams) { p.GossipWeight = -0.1 },
		func(p *BetaParams) { p.Fade = 0 },
		func(p *BetaParams) { p.Fade = 1.5 },
		func(p *BetaParams) { p.AvoidBelow = 99 },
		func(p *BetaParams) { p.MinObservations = -1 },
	}
	for i, mutate := range tests {
		p := DefaultBetaParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate should fail", i)
		}
	}
}

func TestBetaPriorIsNeutral(t *testing.T) {
	s := betaStore(t)
	if got := s.Rating(ident.NodeID(9)); got != 2.5 {
		t.Errorf("prior rating = %v, want the 2.5 midpoint", got)
	}
}

func TestBetaConvergesWithEvidence(t *testing.T) {
	s := betaStore(t)
	good, bad := ident.NodeID(1), ident.NodeID(2)
	for i := 0; i < 40; i++ {
		s.RateRelayMessage(good, MessageRatingInputs{TagRating: 5, Confidence: 1})
		s.RateRelayMessage(bad, MessageRatingInputs{TagRating: 0, Confidence: 1})
	}
	if got := s.Rating(good); got < 4 {
		t.Errorf("good rating = %v, want near 5", got)
	}
	if got := s.Rating(bad); got > 1 {
		t.Errorf("bad rating = %v, want near 0", got)
	}
	if n := s.find(good).firstN; n != 40 {
		t.Errorf("observations = %d", n)
	}
}

func TestBetaFadeFavorsRecentBehaviour(t *testing.T) {
	params := DefaultBetaParams()
	params.Fade = 0.8 // aggressive fading for the test
	s, err := NewBetaStore(0, params)
	if err != nil {
		t.Fatal(err)
	}
	v := ident.NodeID(1)
	// A long good history, then a burst of bad behaviour.
	for i := 0; i < 30; i++ {
		s.RateRelayMessage(v, MessageRatingInputs{TagRating: 5, Confidence: 1})
	}
	high := s.Rating(v)
	for i := 0; i < 10; i++ {
		s.RateRelayMessage(v, MessageRatingInputs{TagRating: 0, Confidence: 1})
	}
	low := s.Rating(v)
	if low >= high {
		t.Errorf("rating did not fall after bad burst: %v → %v", high, low)
	}
	if low > 1.5 {
		t.Errorf("faded model should track the recent bad burst, rating = %v", low)
	}
}

func TestBetaSecondHandIsDiscounted(t *testing.T) {
	s := betaStore(t)
	first, second := ident.NodeID(1), ident.NodeID(2)
	s.RateRelayMessage(first, MessageRatingInputs{TagRating: 0, Confidence: 1})
	s.MergeSecondHand(second, 0)
	if s.Rating(first) >= s.Rating(second) {
		t.Errorf("first-hand evidence (%v) should move the rating more than gossip (%v)",
			s.Rating(first), s.Rating(second))
	}
	// Gossip about self must be ignored.
	s.MergeSecondHand(0, 0)
	if s.Rating(0) != 2.5 {
		t.Error("self gossip merged")
	}
}

func TestBetaShouldAvoid(t *testing.T) {
	s := betaStore(t)
	v := ident.NodeID(3)
	for i := 0; i < 2; i++ {
		s.RateRelayMessage(v, MessageRatingInputs{TagRating: 0, Confidence: 1})
	}
	if s.ShouldAvoid(v) {
		t.Error("avoid with insufficient observations")
	}
	for i := 0; i < 10; i++ {
		s.RateRelayMessage(v, MessageRatingInputs{TagRating: 0, Confidence: 1})
	}
	if !s.ShouldAvoid(v) {
		t.Errorf("persistent zero-rated node not avoided (rating %v)", s.Rating(v))
	}
}

func TestBetaAwardFactorBounds(t *testing.T) {
	s := betaStore(t)
	v := ident.NodeID(4)
	s.RateRelayMessage(v, MessageRatingInputs{TagRating: 4, Confidence: 1})
	for _, ratings := range [][]message.PathRating{nil, pathRatings(0, 0), pathRatings(5, 5), pathRatings(-3, 9)} {
		f := s.AwardFactor(v, ratings)
		if f < 0 || f > 1 {
			t.Errorf("AwardFactor(%v) = %v outside [0, 1]", ratings, f)
		}
	}
}

func TestBetaImplementsModelLikeDRM(t *testing.T) {
	// Both models, same judgements: the orderings must agree even if the
	// absolute values differ.
	var models []Model
	drm, err := NewStore(0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	beta := betaStore(t)
	models = append(models, drm, beta)
	for _, m := range models {
		for i := 0; i < 10; i++ {
			m.RateRelayMessage(1, MessageRatingInputs{TagRating: 5, Confidence: 1})
			m.RateRelayMessage(2, MessageRatingInputs{TagRating: 0, Confidence: 1})
		}
		if m.Rating(1) <= m.Rating(2) {
			t.Errorf("model ordering violated: good %v <= bad %v", m.Rating(1), m.Rating(2))
		}
		if m.AwardFactor(1, nil) <= m.AwardFactor(2, nil) {
			t.Error("award ordering violated")
		}
		if m.Len() != 2 {
			t.Errorf("Len = %d, want 2", m.Len())
		}
	}
	if math.Abs(drm.Rating(1)-5) > 0.5 && math.Abs(beta.Rating(1)-5) > 1.2 {
		t.Error("neither model converged toward the top of the scale")
	}
}
