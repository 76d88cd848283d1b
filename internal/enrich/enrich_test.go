package enrich

import (
	"slices"
	"testing"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
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
	exclude := v.words[:8]
	s := v.SampleExcluding(rng, 5, exclude)
	if len(s) != 2 {
		t.Fatalf("sample = %v, want the 2 non-excluded words", s)
	}
	for _, w := range s {
		if slices.Contains(exclude, w) {
			t.Errorf("excluded word %q sampled", w)
		}
	}
	if got := v.SampleExcluding(rng, 3, v.words[:4], v.words[4:]); got != nil {
		t.Errorf("fully excluded pool returned %v", got)
	}
}

// refSampleExcluding is SampleExcluding's former body, which built the
// exclusion map, the candidate pool and rng.Sample's index table on every
// call: the reference the pool-free draw must reproduce.
func refSampleExcluding(v *Vocabulary, rng *sim.RNG, k int, exclude ...[]string) []string {
	skip := make(map[string]bool)
	for _, list := range exclude {
		for _, w := range list {
			skip[w] = true
		}
	}
	var candidates []string
	for _, w := range v.words {
		if !skip[w] {
			candidates = append(candidates, w)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	idx := rng.Sample(len(candidates), k)
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = candidates[j]
	}
	return out
}

// TestSampleExcludingMatchesCandidatePool checks the pool-free draw against
// the candidate-pool reference over many seeds, vocabulary sizes and
// exclusion lists: the same words in the same order, and the same rng
// state afterwards. The lists repeat words, name words outside the
// vocabulary, and often leave k or fewer candidates, so the k ≥ n
// permutation branch and the empty pool both run.
func TestSampleExcludingMatchesCandidatePool(t *testing.T) {
	gen := sim.NewRNG(12)
	var permBranch, empty int
	for trial := 0; trial < 5000; trial++ {
		v := vocab(t, 1+gen.Intn(24))
		var lists [][]string
		for l := gen.Intn(4); l > 0; l-- {
			var list []string
			for w := gen.Intn(2 * v.Len()); w > 0; w-- {
				if gen.Intn(8) == 0 {
					list = append(list, "elsewhere")
				} else {
					list = append(list, v.words[gen.Intn(v.Len())])
				}
			}
			lists = append(lists, list)
		}
		k := gen.Intn(6)
		seed := gen.Int63()
		got, gotRNG := v.SampleExcluding(sim.NewRNG(seed), k, lists...), sim.NewRNG(seed)
		want, wantRNG := refSampleExcluding(v, sim.NewRNG(seed), k, lists...), sim.NewRNG(seed)
		// Replay both calls on fresh streams to compare the state they leave.
		v.SampleExcluding(gotRNG, k, lists...)
		refSampleExcluding(v, wantRNG, k, lists...)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("trial %d: vocabulary %d, k %d, exclude %v: got %q, want %q", trial, v.Len(), k, lists, got, want)
		}
		if a, b := gotRNG.Int63(), wantRNG.Int63(); a != b {
			t.Fatalf("trial %d: the draw left the rng at %d, the reference at %d", trial, a, b)
		}
		switch pool := len(refSampleExcluding(v, sim.NewRNG(seed), v.Len(), lists...)); {
		case pool == 0:
			empty++
		case k >= pool:
			permBranch++
		}
	}
	if permBranch == 0 || empty == 0 {
		t.Fatalf("k covered the pool %d times and the pool was empty %d times; both must occur", permBranch, empty)
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
	rng := sim.NewRNG(7)
	// Source tagged 2 relevant + 2 irrelevant keywords.
	m := testMessage(t, []string{"a", "b"}, []string{"a", "b", "x", "y"})
	in := JudgeSource(m, rng)
	if in.TagRating != 2.5 { // 2/4 of max 5
		t.Errorf("TagRating = %v, want 2.5", in.TagRating)
	}
	if in.QualityRating != 0.8*5 {
		t.Errorf("QualityRating = %v, want 4", in.QualityRating)
	}
	if in.Confidence < 0 || in.Confidence > 1 {
		t.Errorf("Confidence = %v, want within [0, 1]", in.Confidence)
	}
}

func TestJudgeSourceNoTagsIsNeutralPositive(t *testing.T) {
	m := testMessage(t, []string{"a"}, nil)
	in := JudgeSource(m, sim.NewRNG(8))
	if in.TagRating != 5 {
		t.Errorf("TagRating with no tags = %v, want max", in.TagRating)
	}
}

func TestJudgeEnricherScoresOnlyTheirTags(t *testing.T) {
	rng := sim.NewRNG(9)
	m := testMessage(t, []string{"a", "b", "c"}, []string{"a"})
	relay := ident.NodeID(2)
	clone := m.CopyFor(relay)
	clone.Annotate("b", relay, 0)   // relevant
	clone.Annotate("bad", relay, 0) // irrelevant
	other := ident.NodeID(3)
	clone2 := clone.CopyFor(other)
	clone2.Annotate("c", other, 0) // relevant, by someone else
	in, relevant := JudgeEnricher(clone2, relay, rng)
	if relevant != 1 {
		t.Errorf("relevant count = %d, want 1", relevant)
	}
	if in.TagRating != 2.5 { // 1/2 of the relay's own tags
		t.Errorf("TagRating = %v, want 2.5", in.TagRating)
	}
	if in.Confidence < 0 || in.Confidence > 1 {
		t.Errorf("Confidence = %v, want within [0, 1]", in.Confidence)
	}
}

func TestJudgeConfidenceNoiseBounded(t *testing.T) {
	rng := sim.NewRNG(10)
	for i := 0; i < 1000; i++ {
		if c := confidence(rng); c < 0 || c > 1 {
			t.Fatalf("confidence %v out of [0, 1]", c)
		}
	}
}
