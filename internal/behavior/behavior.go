// Package behavior models the three node populations of the evaluation
// (Paper I §5): cooperative nodes, selfish nodes that keep their radio off
// for most encounters, and malicious nodes that game the incentive by
// attaching irrelevant tags or originating low-quality content.
package behavior

import (
	"fmt"

	"dtnsim/internal/sim"
)

// Kind classifies a node's disposition.
type Kind int

// The node populations.
const (
	Cooperative Kind = iota + 1
	Selfish
	Malicious
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Cooperative:
		return "cooperative"
	case Selfish:
		return "selfish"
	case Malicious:
		return "malicious"
	default:
		return fmt.Sprintf("kind-%d", int(k))
	}
}

// MaliciousQuality is the quality of the content a LowQuality malicious
// node originates.
const MaliciousQuality float64 = 0.2

// Profile is one node's behaviour configuration.
type Profile struct {
	Kind Kind
	// RadioOpenProb applies to selfish nodes: the chance the communication
	// medium is on for a given encounter. The paper's experiments use
	// 1-in-10 ("a selfish node has its communication medium open one out
	// of ten times when it encounters another node").
	RadioOpenProb float64
	// LowQuality applies to malicious nodes that "generate poor quality
	// messages": when true the node's originated messages get
	// MaliciousQuality instead of the workload's draw.
	LowQuality bool
}

// CooperativeProfile returns the default honest profile.
func CooperativeProfile() Profile {
	return Profile{Kind: Cooperative, RadioOpenProb: 1}
}

// SelfishProfile returns the paper's selfish profile (radio open with the
// given probability; the evaluation uses 0.1).
func SelfishProfile(openProb float64) Profile {
	return Profile{Kind: Selfish, RadioOpenProb: openProb}
}

// MaliciousProfile returns the tag-forging profile; lowQuality additionally
// degrades originated content.
func MaliciousProfile(lowQuality bool) Profile {
	return Profile{Kind: Malicious, RadioOpenProb: 1, LowQuality: lowQuality}
}

// Validate checks the profile.
func (p Profile) Validate() error {
	switch {
	case p.Kind < Cooperative || p.Kind > Malicious:
		return fmt.Errorf("behavior: unknown kind %d", int(p.Kind))
	case p.RadioOpenProb < 0 || p.RadioOpenProb > 1:
		return fmt.Errorf("behavior: radio-open probability %v outside [0, 1]", p.RadioOpenProb)
	}
	return nil
}

// RadioOpen draws whether the node's communication medium is on for this
// encounter. Cooperative and malicious nodes always participate (a
// malicious node *wants* contacts — that is how it harvests incentives);
// selfish nodes flip the configured coin.
func (p Profile) RadioOpen(rng *sim.RNG) bool {
	if p.Kind != Selfish {
		return true
	}
	return rng.Coin(p.RadioOpenProb)
}
