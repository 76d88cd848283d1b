package enrich

import (
	"slices"
	"testing"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
	"dtnsim/internal/reputation"
	"dtnsim/internal/sim"
)

func vocab(t *testing.T, n int) *Vocabulary {
	t.Helper()
	v, err := NewVocabulary(n)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func testMessage(t *testing.T, trueKW []string, srcTags []string) *message.Message {
	t.Helper()
	m, err := message.New("m1", 0, ident.NodeID(1), ident.RoleOperator, 0, 100, message.PriorityHigh, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	m.TrueKeywords = trueKW
	for _, kw := range srcTags {
		m.Annotate(kw, m.Source, 0)
	}
	return m
}

func TestVocabularyBasics(t *testing.T) {
	if _, err := NewVocabulary(0); err == nil {
		t.Error("zero-size vocabulary must fail")
	}
	v := vocab(t, 200)
	if v.Len() != 200 {
		t.Errorf("Len = %d", v.Len())
	}
	seen := make(map[string]bool, v.Len())
	for _, w := range v.words {
		if seen[w] {
			t.Fatalf("duplicate word %q", w)
		}
		seen[w] = true
	}
}

func TestVocabularySample(t *testing.T) {
	v := vocab(t, 50)
	rng := sim.NewRNG(1)
	s := v.Sample(rng, 20)
	if len(s) != 20 {
		t.Fatalf("sample size = %d", len(s))
	}
	seen := make(map[string]bool)
	for _, w := range s {
		if !slices.Contains(v.words, w) || seen[w] {
			t.Fatalf("bad sample %v", s)
		}
		seen[w] = true
	}
}

func TestVocabularySampleExcluding(t *testing.T) {
	v := vocab(t, 10)
	rng := sim.NewRNG(2)
	exclude := map[string]bool{}
	for i := 0; i < 8; i++ {
		exclude[v.words[i]] = true
	}
	s := v.SampleExcluding(rng, 5, exclude)
	if len(s) != 2 {
		t.Fatalf("sample = %v, want the 2 non-excluded words", s)
	}
	for _, w := range s {
		if exclude[w] {
			t.Errorf("excluded word %q sampled", w)
		}
	}
	all := map[string]bool{}
	for i := 0; i < 10; i++ {
		all[v.words[i]] = true
	}
	if got := v.SampleExcluding(rng, 3, all); got != nil {
		t.Errorf("fully excluded pool returned %v", got)
	}
}

func TestHonestTaggerOnlyAddsTrueMissingKeywords(t *testing.T) {
	rng := sim.NewRNG(3)
	h := &HonestTagger{KnowProb: 1, MaxTags: 5}
	m := testMessage(t, []string{"tree", "garden", "bench"}, []string{"tree"})
	tags := h.ProposeTags(m, rng)
	if len(tags) == 0 {
		t.Fatal("honest tagger with KnowProb 1 must propose tags")
	}
	for _, kw := range tags {
		if !m.Relevant(kw) {
			t.Errorf("honest tag %q not in ground truth", kw)
		}
		if m.HasKeyword(kw) {
			t.Errorf("honest tag %q already annotated", kw)
		}
	}
}

func TestHonestTaggerNothingMissing(t *testing.T) {
	rng := sim.NewRNG(4)
	h := &HonestTagger{KnowProb: 1, MaxTags: 5}
	m := testMessage(t, []string{"tree"}, []string{"tree"})
	if tags := h.ProposeTags(m, rng); tags != nil {
		t.Errorf("fully annotated message got tags %v", tags)
	}
}

func TestHonestTaggerRespectsKnowProb(t *testing.T) {
	rng := sim.NewRNG(5)
	h := &HonestTagger{KnowProb: 0, MaxTags: 5}
	m := testMessage(t, []string{"tree", "garden"}, []string{"tree"})
	for i := 0; i < 100; i++ {
		if tags := h.ProposeTags(m, rng); tags != nil {
			t.Fatal("KnowProb 0 must never tag")
		}
	}
}

func TestMaliciousTaggerOnlyAddsIrrelevantKeywords(t *testing.T) {
	v := vocab(t, 50)
	rng := sim.NewRNG(6)
	mt := &MaliciousTagger{Vocab: v, TagProb: 1, MaxTags: 3}
	m := testMessage(t, []string{v.words[0], v.words[1]}, []string{v.words[0]})
	tags := mt.ProposeTags(m, rng)
	if len(tags) != 3 {
		t.Fatalf("tags = %v, want 3", tags)
	}
	for _, kw := range tags {
		if m.Relevant(kw) {
			t.Errorf("malicious tag %q is actually relevant", kw)
		}
	}
}

func TestNopTagger(t *testing.T) {
	m := testMessage(t, []string{"a"}, nil)
	if tags := (NopTagger{}).ProposeTags(m, sim.NewRNG(1)); tags != nil {
		t.Error("nop tagger proposed tags")
	}
}

func TestJudgeSourceScoresRelevance(t *testing.T) {
	j := NewJudge(reputation.DefaultParams(), 0)
	rng := sim.NewRNG(7)
	// Source tagged 2 relevant + 2 irrelevant keywords.
	m := testMessage(t, []string{"a", "b"}, []string{"a", "b", "x", "y"})
	in := j.JudgeSource(m, rng)
	if in.TagRating != 2.5 { // 2/4 of max 5
		t.Errorf("TagRating = %v, want 2.5", in.TagRating)
	}
	if in.QualityRating != 0.8*5 {
		t.Errorf("QualityRating = %v, want 4", in.QualityRating)
	}
	if in.Confidence != 1 {
		t.Errorf("Confidence = %v, want 1 with zero noise", in.Confidence)
	}
}

func TestJudgeSourceNoTagsIsNeutralPositive(t *testing.T) {
	j := NewJudge(reputation.DefaultParams(), 0)
	m := testMessage(t, []string{"a"}, nil)
	in := j.JudgeSource(m, sim.NewRNG(8))
	if in.TagRating != 5 {
		t.Errorf("TagRating with no tags = %v, want max", in.TagRating)
	}
}

func TestJudgeEnricherScoresOnlyTheirTags(t *testing.T) {
	j := NewJudge(reputation.DefaultParams(), 0)
	rng := sim.NewRNG(9)
	m := testMessage(t, []string{"a", "b", "c"}, []string{"a"})
	relay := ident.NodeID(2)
	clone := m.CopyFor(relay)
	clone.Annotate("b", relay, 0)   // relevant
	clone.Annotate("bad", relay, 0) // irrelevant
	other := ident.NodeID(3)
	clone2 := clone.CopyFor(other)
	clone2.Annotate("c", other, 0) // relevant, by someone else
	in, relevant := j.JudgeEnricher(clone2, relay, rng)
	if relevant != 1 {
		t.Errorf("relevant count = %d, want 1", relevant)
	}
	if in.TagRating != 2.5 { // 1/2 of the relay's own tags
		t.Errorf("TagRating = %v, want 2.5", in.TagRating)
	}
}

func TestJudgeConfidenceNoiseBounded(t *testing.T) {
	j := NewJudge(reputation.DefaultParams(), 0.5)
	rng := sim.NewRNG(10)
	for i := 0; i < 1000; i++ {
		c := j.confidence(rng)
		if c < 0 || c > j.MaxConfidence {
			t.Fatalf("confidence %v out of [0, %v]", c, j.MaxConfidence)
		}
	}
}
