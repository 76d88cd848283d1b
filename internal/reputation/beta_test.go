package reputation

import (
	"math"
	"testing"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
)

func betaStore(t *testing.T) *BetaStore {
	t.Helper()
	s, err := NewBetaStore(ident.NodeID(0), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return s
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

// TestBetaFadeFavorsRecentBehaviour feeds two stores the same evidence in
// two orders. Without fading both would hold 30 good and 10 bad
// observations and agree; with it, the store that saw the bad burst last
// rates the node lower.
func TestBetaFadeFavorsRecentBehaviour(t *testing.T) {
	good := MessageRatingInputs{TagRating: 5, Confidence: 1}
	bad := MessageRatingInputs{TagRating: 0, Confidence: 1}
	rate := func(s *BetaStore, in MessageRatingInputs, n int) {
		for i := 0; i < n; i++ {
			s.RateRelayMessage(1, in)
		}
	}
	badLast, badFirst := betaStore(t), betaStore(t)
	rate(badLast, good, 30)
	rate(badLast, bad, 10)
	rate(badFirst, bad, 10)
	rate(badFirst, good, 30)
	if last, first := badLast.Rating(1), badFirst.Rating(1); last >= first {
		t.Errorf("bad burst last rates %v, bad burst first %v: recent evidence must weigh more", last, first)
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
		f := AwardFactor(DefaultParams().Alpha, s.Rating(v), ratings)
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
		if AwardFactor(DefaultParams().Alpha, m.Rating(1), nil) <= AwardFactor(DefaultParams().Alpha, m.Rating(2), nil) {
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
