package reputation

import (
	"math"
	"testing"
	"testing/quick"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
	"dtnsim/internal/sim"
)

func store(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(ident.NodeID(0), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pathRatings builds carried path ratings with the given values.
func pathRatings(values ...float64) []message.PathRating {
	out := make([]message.PathRating, len(values))
	for i, v := range values {
		out[i].Rating = v
	}
	return out
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidation(t *testing.T) {
	for _, alpha := range []float64{0.5, 1} {
		p := Params{Alpha: alpha}
		if err := p.Validate(); err == nil {
			t.Errorf("alpha %v: Validate should fail", alpha)
		}
		if _, err := NewBetaStore(0, p); err == nil {
			t.Errorf("alpha %v: NewBetaStore should fail", alpha)
		}
	}
}

// TestRateSourceMessageFormula checks R_i = ½(R_t·C/C_m) + ½R_q.
func TestRateSourceMessageFormula(t *testing.T) {
	s := store(t)
	ri := s.RateSourceMessage(ident.NodeID(1), MessageRatingInputs{
		TagRating:     4,
		Confidence:    0.5,
		QualityRating: 3,
	})
	want := 0.5*(4*0.5/1.0) + 0.5*3
	if math.Abs(ri-want) > 1e-12 {
		t.Errorf("R_i = %v, want %v", ri, want)
	}
	if got := s.Rating(ident.NodeID(1)); math.Abs(got-ri) > 1e-12 {
		t.Errorf("first rating must set the node rating: %v vs %v", got, ri)
	}
}

// TestRateRelayMessageFormula checks R_i = R_t·C/C_m.
func TestRateRelayMessageFormula(t *testing.T) {
	s := store(t)
	ri := s.RateRelayMessage(ident.NodeID(2), MessageRatingInputs{
		TagRating:  2,
		Confidence: 0.8,
	})
	want := 2 * 0.8
	if math.Abs(ri-want) > 1e-12 {
		t.Errorf("R_i = %v, want %v", ri, want)
	}
}

// TestNodeRatingIsMessageAverage checks Case 1: r_{v,u} = Σ r_{m_v}/N.
func TestNodeRatingIsMessageAverage(t *testing.T) {
	s := store(t)
	v := ident.NodeID(3)
	r1 := s.RateRelayMessage(v, MessageRatingInputs{TagRating: 4, Confidence: 1})
	r2 := s.RateRelayMessage(v, MessageRatingInputs{TagRating: 2, Confidence: 1})
	want := (r1 + r2) / 2
	if got := s.Rating(v); math.Abs(got-want) > 1e-12 {
		t.Errorf("rating = %v, want mean %v", got, want)
	}
	if n := s.find(v).msgN; n != 2 {
		t.Errorf("observations = %d, want 2", n)
	}
}

// TestMergeSecondHand checks Case 2: r_{v,u} = (1-α)·r_{v,z} + α·r_{v,u}.
func TestMergeSecondHand(t *testing.T) {
	s := store(t)
	v := ident.NodeID(4)
	p := s.params
	before := s.Rating(v) // InitialRating
	s.MergeSecondHand(v, 0)
	want := (1-p.Alpha)*0 + p.Alpha*before
	if got := s.Rating(v); math.Abs(got-want) > 1e-12 {
		t.Errorf("merged rating = %v, want %v", got, want)
	}
}

func TestMergeIgnoresGossipAboutSelf(t *testing.T) {
	s := store(t)
	self := ident.NodeID(0)
	s.MergeSecondHand(self, 0)
	if got := s.Rating(self); got != InitialRating {
		t.Errorf("self rating changed to %v", got)
	}
}

func TestClamping(t *testing.T) {
	s := store(t)
	v := ident.NodeID(5)
	s.RateRelayMessage(v, MessageRatingInputs{TagRating: 99, Confidence: 99})
	if got := s.Rating(v); got > MaxRating {
		t.Errorf("rating %v above max", got)
	}
	w := ident.NodeID(6)
	s.RateRelayMessage(w, MessageRatingInputs{TagRating: -5, Confidence: -1})
	if got := s.Rating(w); got < 0 {
		t.Errorf("rating %v below zero", got)
	}
}

func TestShouldAvoidNeedsEvidenceAndLowRating(t *testing.T) {
	s := store(t)
	v := ident.NodeID(7)
	if s.ShouldAvoid(v) {
		t.Error("unknown node must not be avoided")
	}
	// Two bad ratings: below MinObservations = 3.
	s.RateRelayMessage(v, MessageRatingInputs{TagRating: 0, Confidence: 1})
	s.RateRelayMessage(v, MessageRatingInputs{TagRating: 0, Confidence: 1})
	if s.ShouldAvoid(v) {
		t.Error("insufficient evidence must not trigger avoidance")
	}
	s.RateRelayMessage(v, MessageRatingInputs{TagRating: 0, Confidence: 1})
	if !s.ShouldAvoid(v) {
		t.Error("three zero ratings must trigger avoidance")
	}
	// A well-rated node is never avoided.
	g := ident.NodeID(8)
	for i := 0; i < 5; i++ {
		s.RateRelayMessage(g, MessageRatingInputs{TagRating: 5, Confidence: 1})
	}
	if s.ShouldAvoid(g) {
		t.Error("well-rated node avoided")
	}
}

// TestKnownSorted checks the read path gossip uses, on both models: the
// opinions a store holds come out in ascending node-ID order whatever order
// the nodes were first heard of in, each equals Rating, and the walk
// allocates nothing.
func TestKnownSorted(t *testing.T) {
	for _, m := range []Model{store(t), betaStore(t)} {
		for _, id := range []ident.NodeID{9, 3, 7} {
			m.RateRelayMessage(id, MessageRatingInputs{TagRating: 3, Confidence: 1})
		}
		m.MergeSecondHand(5, 4)
		if m.Len() != 4 {
			t.Fatalf("%T: Len = %d, want 4", m, m.Len())
		}
		for i, want := range []ident.NodeID{3, 5, 7, 9} {
			if id, r := m.Opinion(i); id != want || r != m.Rating(want) {
				t.Errorf("%T: Opinion(%d) = %v, %v; want %v, %v", m, i, id, r, want, m.Rating(want))
			}
		}
		// Gossip walks every opinion through the interface; that read
		// must not allocate.
		var sum float64
		allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < m.Len(); i++ {
				_, r := m.Opinion(i)
				sum += r
			}
		})
		if allocs != 0 {
			t.Errorf("%T: reading every opinion allocated %v times", m, allocs)
		}
	}
}

// TestAwardFactorFormula checks
// factor = (1-α)·mean(pathRatings)/r_m + α·r_{v,u}/r_m.
func TestAwardFactorFormula(t *testing.T) {
	s := store(t)
	p := s.params
	v := ident.NodeID(10)
	s.RateRelayMessage(v, MessageRatingInputs{TagRating: 4, Confidence: 1}) // rating = 4
	got := AwardFactor(s.params.Alpha, s.Rating(v), pathRatings(5, 3))
	want := (1-p.Alpha)*(4.0/5.0)/1 + p.Alpha*(4.0/5.0)
	// mean(5,3)=4 → 4/r_m = 0.8; own rating 4 → 0.8.
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AwardFactor = %v, want %v", got, want)
	}
	// Path ratings off the scale clamp into [0, r_m]: (9, -1) counts as (5, 0).
	got = AwardFactor(s.params.Alpha, s.Rating(v), pathRatings(9, -1))
	want = (1-p.Alpha)*(2.5/5.0) + p.Alpha*(4.0/5.0)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AwardFactor(9, -1) = %v, want %v", got, want)
	}
}

func TestAwardFactorNoPathRatings(t *testing.T) {
	s := store(t)
	v := ident.NodeID(11)
	got := AwardFactor(s.params.Alpha, s.Rating(v), nil)
	want := InitialRating / MaxRating
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AwardFactor(nil) = %v, want %v", got, want)
	}
}

// TestAwardFactorBounded: the factor must stay in [0, 1] for any inputs, or
// the destination could pay more than I + I_t.
func TestAwardFactorBounded(t *testing.T) {
	s := store(t)
	rng := sim.NewRNG(19)
	check := func(n uint8) bool {
		v := ident.NodeID(int(n%20) + 1)
		s.RateRelayMessage(v, MessageRatingInputs{
			TagRating:  rng.Range(-2, 8),
			Confidence: rng.Range(-1, 2),
		})
		ratings := make([]message.PathRating, rng.Intn(5))
		for i := range ratings {
			ratings[i].Rating = rng.Range(-2, 8)
		}
		f := AwardFactor(s.params.Alpha, s.Rating(v), ratings)
		return f >= 0 && f <= 1+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMaliciousRatingConverges: a node emitting only irrelevant tags is
// driven toward zero; an honest node toward the maximum.
func TestMaliciousRatingConverges(t *testing.T) {
	s := store(t)
	bad, good := ident.NodeID(20), ident.NodeID(21)
	for i := 0; i < 50; i++ {
		s.RateRelayMessage(bad, MessageRatingInputs{TagRating: 0, Confidence: 1})
		s.RateRelayMessage(good, MessageRatingInputs{TagRating: 5, Confidence: 1})
	}
	if got := s.Rating(bad); got > 0.5 {
		t.Errorf("malicious rating = %v, want near 0", got)
	}
	if got := s.Rating(good); got < 4.5 {
		t.Errorf("honest rating = %v, want near 5", got)
	}
	if AwardFactor(s.params.Alpha, s.Rating(bad), nil) >= AwardFactor(s.params.Alpha, s.Rating(good), nil) {
		t.Error("malicious node must earn a lower award factor")
	}
}
