package behavior

import (
	"testing"

	"dtnsim/internal/sim"
)

func TestProfileConstructors(t *testing.T) {
	c := CooperativeProfile()
	if c.Kind != Cooperative || c.RadioOpenProb != 1 {
		t.Errorf("cooperative profile = %+v", c)
	}
	s := SelfishProfile(0.1)
	if s.Kind != Selfish || s.RadioOpenProb != 0.1 {
		t.Errorf("selfish profile = %+v", s)
	}
	m := MaliciousProfile(true)
	if m.Kind != Malicious || !m.LowQuality {
		t.Errorf("malicious profile = %+v", m)
	}
	for _, p := range []Profile{c, s, m, MaliciousProfile(false)} {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %v invalid: %v", p.Kind, err)
		}
	}
}

func TestProfileValidation(t *testing.T) {
	bad := []Profile{
		{Kind: 0, RadioOpenProb: 1},
		{Kind: Cooperative, RadioOpenProb: -0.1},
		{Kind: Cooperative, RadioOpenProb: 1.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate should fail for %+v", i, p)
		}
	}
}

func TestKindString(t *testing.T) {
	if Cooperative.String() != "cooperative" || Selfish.String() != "selfish" || Malicious.String() != "malicious" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must still render")
	}
}

// TestSelfishRadioFrequency checks the paper's 1-in-10 model: a selfish
// node's radio is open roughly 10% of encounters.
func TestSelfishRadioFrequency(t *testing.T) {
	p := SelfishProfile(0.1)
	rng := sim.NewRNG(42)
	open := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if p.RadioOpen(rng) {
			open++
		}
	}
	freq := float64(open) / n
	if freq < 0.08 || freq > 0.12 {
		t.Errorf("selfish open frequency = %v, want ≈0.1", freq)
	}
}

func TestCooperativeAndMaliciousAlwaysOpen(t *testing.T) {
	rng := sim.NewRNG(43)
	coop := CooperativeProfile()
	mal := MaliciousProfile(false)
	for i := 0; i < 100; i++ {
		if !coop.RadioOpen(rng) {
			t.Fatal("cooperative radio must always be open")
		}
		if !mal.RadioOpen(rng) {
			t.Fatal("malicious radio must always be open (it wants contacts)")
		}
	}
}
