// Package scenario builds paper-scale networks from experiment-level knobs:
// node count, selfish and malicious percentages, interest assignment from
// the keyword pool, role hierarchy, and the Figure 5.6 generator classes.
// It maps Table 5.1 onto core.Config and a NodeSpec population.
package scenario

import (
	"fmt"
	"time"

	"dtnsim/internal/behavior"
	"dtnsim/internal/core"
	"dtnsim/internal/enrich"
	"dtnsim/internal/ident"
	"dtnsim/internal/routing"
	"dtnsim/internal/sim"
	"dtnsim/internal/world"
)

// Spec is the experiment-level description of a run.
type Spec struct {
	// Nodes is the participant count (Table 5.1: 500).
	Nodes int
	// KeywordPool is the social-interest vocabulary size (Table 5.1: 200).
	KeywordPool int
	// InterestsPerNode is each node's subscription count (Table 5.1: 20).
	InterestsPerNode int
	// SelfishPercent of nodes keep their radio mostly off.
	SelfishPercent int
	// SelfishOpenProb is the per-encounter radio-on chance for selfish
	// nodes (the paper: "one out of ten times").
	SelfishOpenProb float64
	// MaliciousPercent of nodes forge enrichment tags.
	MaliciousPercent int
	// MaliciousLowQuality additionally degrades malicious nodes' own
	// content.
	MaliciousLowQuality bool
	// ClassSplit enables the Figure 5.6 generator populations
	// (50% high-end / 30% mid-range / 20% low-end).
	ClassSplit bool
	// CommanderPercent of nodes get the top role (R_u = 1); the rest are
	// operators. Zero keeps everyone at the default civilian rank.
	CommanderPercent int
	// Scheme selects baseline vs full proposal.
	Scheme core.Scheme
	// Seed drives population sampling and the run.
	Seed int64
	// Heartbeat sets the wall-clock interval between observer heartbeat
	// snapshots (core.Config Heartbeat); zero disables them. Heartbeats
	// never perturb the run itself.
	Heartbeat time.Duration
	// Duration overrides the 24 h default when positive; zero keeps the
	// default and a negative value is invalid.
	Duration time.Duration
	// AreaKm2 overrides the 5 km² default when positive (zero keeps it).
	AreaKm2 float64
	// InitialTokens overrides Table 5.1's 200 when positive (Figure 5.3;
	// zero keeps it).
	InitialTokens float64
	// MeanMessageInterval overrides the workload default when positive
	// (zero keeps it).
	MeanMessageInterval time.Duration
	// RouterName selects a shipped routing algorithm (RouterNames); empty
	// means ChitChat. The incentive layer composes with any router. Build
	// makes a fresh instance per call, so stateful routers (PRoPHET) are
	// never shared between runs.
	RouterName string
	// DisableReputation ablates the DRM within SchemeIncentive.
	DisableReputation bool
	// DisableEnrichment ablates content enrichment within SchemeIncentive.
	DisableEnrichment bool
	// PlainBuffers ablates priority-aware eviction (DropOldest instead).
	PlainBuffers bool
	// NoPrepay ablates the relay-threshold prepayment.
	NoPrepay bool
	// Step overrides the tick granularity when positive (coarser steps
	// trade contact-detection precision for speed in quick profiles; zero
	// keeps the default).
	Step time.Duration
	// BatteryJoules sets each node's radio energy budget; zero means
	// unlimited (the paper's setting).
	BatteryJoules float64
	// BetaReputation swaps the DRM for the REPSYS-style Bayesian
	// comparator.
	BetaReputation bool
}

// Default returns the Table 5.1 experiment profile for the given scheme.
func Default(scheme core.Scheme) Spec {
	return Spec{
		Nodes:            500,
		KeywordPool:      200,
		InterestsPerNode: 20,
		SelfishOpenProb:  0.1,
		Scheme:           scheme,
		Seed:             1,
	}
}

// Validate checks the spec.
func (s Spec) Validate() error {
	switch {
	case s.Nodes <= 0:
		return fmt.Errorf("scenario: node count must be positive, got %d", s.Nodes)
	case s.KeywordPool <= 0:
		return fmt.Errorf("scenario: keyword pool must be positive, got %d", s.KeywordPool)
	case s.InterestsPerNode <= 0 || s.InterestsPerNode > s.KeywordPool:
		return fmt.Errorf("scenario: interests per node %d outside [1, %d]", s.InterestsPerNode, s.KeywordPool)
	case s.SelfishPercent < 0 || s.SelfishPercent > 100:
		return fmt.Errorf("scenario: selfish percent %d outside [0, 100]", s.SelfishPercent)
	case s.MaliciousPercent < 0 || s.MaliciousPercent > 100:
		return fmt.Errorf("scenario: malicious percent %d outside [0, 100]", s.MaliciousPercent)
	case s.SelfishPercent+s.MaliciousPercent > 100:
		return fmt.Errorf("scenario: selfish+malicious exceed 100%%")
	case s.CommanderPercent < 0 || s.CommanderPercent > 100:
		return fmt.Errorf("scenario: commander percent %d outside [0, 100]", s.CommanderPercent)
	case s.SelfishOpenProb < 0 || s.SelfishOpenProb > 1:
		return fmt.Errorf("scenario: selfish open probability %v outside [0, 1]", s.SelfishOpenProb)
	case s.Duration < 0:
		return fmt.Errorf("scenario: duration %v is negative", s.Duration)
	case s.AreaKm2 < 0:
		return fmt.Errorf("scenario: area %v km² is negative", s.AreaKm2)
	case s.InitialTokens < 0:
		return fmt.Errorf("scenario: initial tokens %v is negative", s.InitialTokens)
	case s.MeanMessageInterval < 0:
		return fmt.Errorf("scenario: mean message interval %v is negative", s.MeanMessageInterval)
	case s.Step < 0:
		return fmt.Errorf("scenario: step %v is negative", s.Step)
	}
	return nil
}

// Build materialises the spec into an engine configuration and population.
func Build(spec Spec) (core.Config, []core.NodeSpec, error) {
	if err := spec.Validate(); err != nil {
		return core.Config{}, nil, err
	}
	vocab, err := enrich.NewVocabulary(spec.KeywordPool)
	if err != nil {
		return core.Config{}, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.Heartbeat = spec.Heartbeat
	cfg.Scheme = spec.Scheme
	cfg.Workload = core.DefaultWorkload(vocab)
	if spec.Duration > 0 {
		cfg.Duration = spec.Duration
	}
	if spec.AreaKm2 > 0 {
		cfg.Area = world.SquareKm(spec.AreaKm2)
	}
	if spec.InitialTokens > 0 {
		cfg.Incentive.InitialTokens = spec.InitialTokens
	}
	if spec.MeanMessageInterval > 0 {
		cfg.Workload.MeanInterval = spec.MeanMessageInterval
	}
	if spec.Step > 0 {
		cfg.Step = spec.Step
	}
	if spec.RouterName != "" {
		r, rerr := NewRouter(spec.RouterName)
		if rerr != nil {
			return core.Config{}, nil, rerr
		}
		cfg.Router = r
	}
	if spec.DisableReputation {
		cfg.ReputationEnabled = false
	}
	if spec.DisableEnrichment {
		cfg.EnrichmentEnabled = false
	}
	if spec.PlainBuffers {
		cfg.PriorityBuffers = false
	}
	if spec.NoPrepay {
		cfg.Incentive.PrepayFraction = 0
	}
	cfg.BatteryJoules = spec.BatteryJoules
	if spec.BetaReputation {
		cfg.ReputationModel = core.ReputationBeta
	}

	rng := sim.NewRNG(spec.Seed).Fork("population")
	specs := make([]core.NodeSpec, spec.Nodes)

	// Assign dispositions by shuffled index so selfish/malicious nodes are
	// spread uniformly.
	order := rng.Perm(spec.Nodes)
	selfishCount := spec.Nodes * spec.SelfishPercent / 100
	maliciousCount := spec.Nodes * spec.MaliciousPercent / 100
	for i, idx := range order {
		switch {
		case i < selfishCount:
			specs[idx].Profile = behavior.SelfishProfile(spec.SelfishOpenProb)
		case i < selfishCount+maliciousCount:
			specs[idx].Profile = behavior.MaliciousProfile(spec.MaliciousLowQuality)
		default:
			specs[idx].Profile = behavior.CooperativeProfile()
		}
	}

	commanderCount := spec.Nodes * spec.CommanderPercent / 100
	roleOrder := rng.Perm(spec.Nodes)
	for i, idx := range roleOrder {
		switch {
		case spec.CommanderPercent == 0:
			specs[idx].Role = ident.RoleCivilian
		case i < commanderCount:
			specs[idx].Role = ident.RoleCommander
		default:
			specs[idx].Role = ident.RoleOperator
		}
	}

	if spec.ClassSplit {
		classOrder := rng.Perm(spec.Nodes)
		hi := spec.Nodes * 50 / 100
		mid := spec.Nodes * 30 / 100
		for i, idx := range classOrder {
			switch {
			case i < hi:
				specs[idx].Class = core.ClassHighEnd
			case i < hi+mid:
				specs[idx].Class = core.ClassMidRange
			default:
				specs[idx].Class = core.ClassLowEnd
			}
		}
	}

	for i := range specs {
		specs[i].Interests = vocab.Sample(rng, spec.InterestsPerNode)
	}
	return cfg, specs, nil
}

// RouterNames lists the shipped routing algorithms in canonical order.
func RouterNames() []string {
	return []string{"chitchat", "epidemic", "direct", "spray-and-wait", "prophet", "two-hop"}
}

// NewRouter builds a fresh instance of a shipped router by name. Stateful
// routers (PRoPHET) must not be shared across runs; always build per run.
func NewRouter(name string) (routing.Router, error) {
	switch name {
	case "chitchat":
		return routing.NewChitChat(), nil
	case "epidemic":
		return routing.NewEpidemic(), nil
	case "direct":
		return routing.NewDirect(), nil
	case "spray-and-wait":
		return routing.NewSprayAndWait(8)
	case "prophet":
		return routing.NewProphet(), nil
	case "two-hop":
		return routing.NewTwoHop(), nil
	default:
		return nil, fmt.Errorf("scenario: unknown router %q", name)
	}
}

// BuildEngine is the one-call convenience: Build then core.NewEngine.
func BuildEngine(spec Spec) (*core.Engine, error) {
	cfg, specs, err := Build(spec)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(cfg, specs)
}
