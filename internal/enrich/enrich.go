// Package enrich implements content enrichment (Paper I §1.3.2, §3.2) and
// its simulated ground truth. In the deployed system a relay user looks at
// an in-transit image and adds keywords they happen to know; the destination
// user later judges whether those keywords were relevant. Neither judgement
// can run in a simulator, so each message carries a hidden set of *true*
// keywords: honest taggers draw from it, malicious taggers draw from outside
// it, and the destination-side judge scores tags against it with a fixed
// confidence noise — exercising exactly the reward and reputation code
// paths the human exercises in the field.
package enrich

import (
	"fmt"
	"strconv"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
	"dtnsim/internal/reputation"
	"dtnsim/internal/sim"
)

// Vocabulary is the global keyword pool (Table 5.1: 200 keywords).
type Vocabulary struct {
	words []string
}

// NewVocabulary generates a pool of n distinct keywords.
func NewVocabulary(n int) (*Vocabulary, error) {
	if n <= 0 {
		return nil, fmt.Errorf("enrich: vocabulary size must be positive, got %d", n)
	}
	words := make([]string, n)
	for i := range words {
		words[i] = "kw-" + strconv.Itoa(i)
	}
	return &Vocabulary{words: words}, nil
}

// Len returns the pool size.
func (v *Vocabulary) Len() int { return len(v.words) }

// Sample draws k distinct keywords from the pool.
func (v *Vocabulary) Sample(rng *sim.RNG, k int) []string {
	idx := rng.Sample(len(v.words), k)
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = v.words[j]
	}
	return out
}

// SampleExcluding draws up to k distinct keywords not present in the
// exclusion set.
func (v *Vocabulary) SampleExcluding(rng *sim.RNG, k int, exclude map[string]bool) []string {
	var candidates []string
	for _, w := range v.words {
		if !exclude[w] {
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

// Tagger proposes enrichment tags for an in-transit message.
type Tagger interface {
	// ProposeTags returns keywords the node would add to m. The engine
	// applies them via message.Annotate, which drops duplicates.
	ProposeTags(m *message.Message, rng *sim.RNG) []string
	// Name identifies the tagger in reports.
	Name() string
}

// HonestTagger models a relay user who recognises real content in the image
// that the existing tags do not cover. With probability KnowProb per
// message it adds up to MaxTags keywords drawn from the hidden ground truth
// that are not yet annotated.
type HonestTagger struct {
	// KnowProb is the chance the user has supplementary information.
	KnowProb float64
	// MaxTags bounds the tags added per enrichment.
	MaxTags int
}

var _ Tagger = (*HonestTagger)(nil)

// Name implements Tagger.
func (h *HonestTagger) Name() string { return "honest" }

// ProposeTags implements Tagger.
func (h *HonestTagger) ProposeTags(m *message.Message, rng *sim.RNG) []string {
	if h.MaxTags <= 0 || !rng.Coin(h.KnowProb) {
		return nil
	}
	var missing []string
	for _, t := range m.TrueKeywords {
		if !m.HasKeyword(t) {
			missing = append(missing, t)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	k := h.MaxTags
	if k > len(missing) {
		k = len(missing)
	}
	idx := rng.Sample(len(missing), k)
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = missing[j]
	}
	return out
}

// MaliciousTagger models the attack the DRM exists to counter: a relay adds
// keywords that do *not* match the content ("a node which acquired a message
// consisting of an image of a tree ... adds keywords car, books and
// building") so that nodes interested in those keywords become paying
// destinations. Tags are drawn from the vocabulary outside the ground truth.
type MaliciousTagger struct {
	// Vocab is the pool irrelevant tags are drawn from.
	Vocab *Vocabulary
	// TagProb is the chance of attacking a given in-transit message.
	TagProb float64
	// MaxTags bounds the irrelevant tags added per message.
	MaxTags int
}

var _ Tagger = (*MaliciousTagger)(nil)

// Name implements Tagger.
func (m *MaliciousTagger) Name() string { return "malicious" }

// ProposeTags implements Tagger.
func (m *MaliciousTagger) ProposeTags(msg *message.Message, rng *sim.RNG) []string {
	if m.MaxTags <= 0 || !rng.Coin(m.TagProb) {
		return nil
	}
	exclude := make(map[string]bool, len(msg.TrueKeywords)+len(msg.Annotations))
	for _, t := range msg.TrueKeywords {
		exclude[t] = true
	}
	for _, a := range msg.Annotations {
		exclude[a.Keyword] = true
	}
	return m.Vocab.SampleExcluding(rng, m.MaxTags, exclude)
}

// NopTagger never enriches (plain ChitChat relays).
type NopTagger struct{}

var _ Tagger = NopTagger{}

// Name implements Tagger.
func (NopTagger) Name() string { return "nop" }

// ProposeTags implements Tagger.
func (NopTagger) ProposeTags(*message.Message, *sim.RNG) []string { return nil }

// ConfidenceNoise is the σ of the judge's confidence draw below full
// confidence. JudgeSource and JudgeEnricher simulate the destination user's
// post-reception review: scoring tag relevance against the ground truth and
// the content quality, on the reputation scale, with this noise standing in
// for human uncertainty ("the user is not entirely certain ... the user can
// add a confidence value").
const ConfidenceNoise float64 = 0.1

// JudgeSource produces the rating inputs for the message source: tag rating
// from the fraction of the source's tags that match ground truth, quality
// rating from the content quality.
func JudgeSource(m *message.Message, rng *sim.RNG) reputation.MessageRatingInputs {
	var relevant, total int
	for _, a := range m.Annotations {
		if a.AddedBy != m.Source {
			continue
		}
		total++
		if m.Relevant(a.Keyword) {
			relevant++
		}
	}
	return reputation.MessageRatingInputs{
		TagRating:     fractionRating(relevant, total),
		Confidence:    confidence(rng),
		QualityRating: m.Quality * reputation.MaxRating,
	}
}

// JudgeEnricher produces the rating inputs for one enriching relay, judging
// only the tags that relay added.
func JudgeEnricher(m *message.Message, relay ident.NodeID, rng *sim.RNG) (reputation.MessageRatingInputs, int) {
	var relevant, total int
	for _, a := range m.Annotations {
		if a.AddedBy != relay || a.Hop <= 0 {
			continue
		}
		total++
		if m.Relevant(a.Keyword) {
			relevant++
		}
	}
	return reputation.MessageRatingInputs{
		TagRating:  fractionRating(relevant, total),
		Confidence: confidence(rng),
	}, relevant
}

func fractionRating(relevant, total int) float64 {
	if total == 0 {
		// Nothing to judge: neutral-positive, the user has no complaint.
		return reputation.MaxRating
	}
	return reputation.MaxRating * float64(relevant) / float64(total)
}

func confidence(rng *sim.RNG) float64 {
	c := reputation.MaxConfidence - abs(rng.Normal(0, ConfidenceNoise))
	if c < 0 {
		return 0
	}
	return c
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
