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
	"slices"
	"strconv"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
	"dtnsim/internal/reputation"
	"dtnsim/internal/sim"
)

// Vocabulary is the global keyword pool (Table 5.1: 200 keywords).
type Vocabulary struct {
	words []string
	index map[string]int // word → its position in words
}

// NewVocabulary generates a pool of n distinct keywords.
func NewVocabulary(n int) (*Vocabulary, error) {
	if n <= 0 {
		return nil, fmt.Errorf("enrich: vocabulary size must be positive, got %d", n)
	}
	words := make([]string, n)
	index := make(map[string]int, n)
	for i := range words {
		words[i] = "kw-" + strconv.Itoa(i)
		index[words[i]] = i
	}
	return &Vocabulary{words: words, index: index}, nil
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

// SampleExcluding draws up to k distinct keywords that are in none of the
// exclude lists. It returns what rng.Sample would draw from the candidate
// pool, the vocabulary in order without the excluded words, with the same
// rng draws, but builds neither the pool nor Sample's index table:
//   - the excluded words' positions, sorted and deduplicated, map a pool
//     index to its word (see poolWord);
//   - the partial Fisher–Yates runs over a virtual identity table, holding
//     only the entries its swaps moved. Each of the k draws moves at most
//     two entries.
//
// When k covers the whole pool it returns rng.Perm's order, as Sample does.
func (v *Vocabulary) SampleExcluding(rng *sim.RNG, k int, exclude ...[]string) []string {
	var skipBuf [16]int
	skip := skipBuf[:0]
	for _, list := range exclude {
		for _, w := range list {
			if i, ok := v.index[w]; ok {
				skip = append(skip, i)
			}
		}
	}
	slices.Sort(skip)
	skip = slices.Compact(skip)
	n := len(v.words) - len(skip)
	if n == 0 {
		return nil
	}
	k = min(k, n)
	out := make([]string, k)
	if k == n {
		for i, j := range rng.Perm(n) {
			out[i] = v.words[poolWord(skip, j)]
		}
		return out
	}
	var movedBuf [8]moved
	table := movedBuf[:0]
	for i := range out {
		j := i + rng.Intn(n-i)
		vi, vj := entry(table, i), entry(table, j)
		table = setEntry(setEntry(table, j, vi), i, vj)
		out[i] = v.words[poolWord(skip, vj)]
	}
	return out
}

// moved is one entry of SampleExcluding's virtual index table that a swap
// moved away from the identity.
type moved struct{ at, val int }

// entry reads position at of the virtual index table.
func entry(table []moved, at int) int {
	for _, e := range table {
		if e.at == at {
			return e.val
		}
	}
	return at
}

// setEntry writes val at position at of the virtual index table.
func setEntry(table []moved, at, val int) []moved {
	for i := range table {
		if table[i].at == at {
			table[i].val = val
			return table
		}
	}
	return append(table, moved{at, val})
}

// poolWord returns the vocabulary position of the candidate pool's j'th
// word, skip being the excluded positions in ascending order.
func poolWord(skip []int, j int) int {
	for _, s := range skip {
		if s > j {
			break
		}
		j++
	}
	return j
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
	return m.Vocab.SampleExcluding(rng, m.MaxTags, msg.TrueKeywords, msg.Keywords())
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
