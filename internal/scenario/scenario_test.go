package scenario

import (
	"context"
	"testing"
	"time"

	"dtnsim/internal/behavior"
	"dtnsim/internal/core"
	"dtnsim/internal/ident"
)

func TestDefaultMatchesTable51(t *testing.T) {
	s := Default(core.SchemeIncentive)
	if s.Nodes != 500 || s.KeywordPool != 200 || s.InterestsPerNode != 20 {
		t.Errorf("default spec = %+v, want Table 5.1 values", s)
	}
	if s.SelfishOpenProb != 0.1 {
		t.Errorf("selfish open probability = %v, want the paper's 1-in-10", s.SelfishOpenProb)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"zero nodes", func(s *Spec) { s.Nodes = 0 }},
		{"zero pool", func(s *Spec) { s.KeywordPool = 0 }},
		{"interests above pool", func(s *Spec) { s.InterestsPerNode = s.KeywordPool + 1 }},
		{"selfish over 100", func(s *Spec) { s.SelfishPercent = 101 }},
		{"malicious negative", func(s *Spec) { s.MaliciousPercent = -1 }},
		{"populations over 100", func(s *Spec) { s.SelfishPercent = 60; s.MaliciousPercent = 60 }},
		{"commander over 100", func(s *Spec) { s.CommanderPercent = 200 }},
		{"open prob over 1", func(s *Spec) { s.SelfishOpenProb = 1.5 }},
		// Zero keeps the Table 5.1 default; a negative value is an error,
		// not the default.
		{"negative duration", func(s *Spec) { s.Duration = -time.Hour }},
		{"negative area", func(s *Spec) { s.AreaKm2 = -0.5 }},
		{"negative initial tokens", func(s *Spec) { s.InitialTokens = -1 }},
		{"negative message interval", func(s *Spec) { s.MeanMessageInterval = -time.Minute }},
		{"negative step", func(s *Spec) { s.Step = -time.Second }},
	}
	for _, tt := range tests {
		s := Default(core.SchemeIncentive)
		tt.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", tt.name)
		}
	}
}

func TestBuildPopulations(t *testing.T) {
	s := Default(core.SchemeIncentive)
	s.Nodes = 100
	s.SelfishPercent = 20
	s.MaliciousPercent = 10
	_, specs, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 100 {
		t.Fatalf("specs = %d", len(specs))
	}
	counts := map[behavior.Kind]int{}
	for _, sp := range specs {
		counts[sp.Profile.Kind]++
		if len(sp.Interests) != s.InterestsPerNode {
			t.Fatalf("node has %d interests, want %d", len(sp.Interests), s.InterestsPerNode)
		}
		seen := map[string]bool{}
		for _, kw := range sp.Interests {
			if seen[kw] {
				t.Fatal("duplicate interest assigned")
			}
			seen[kw] = true
		}
	}
	if counts[behavior.Selfish] != 20 || counts[behavior.Malicious] != 10 || counts[behavior.Cooperative] != 70 {
		t.Errorf("population counts = %v", counts)
	}
}

func TestBuildClassSplit(t *testing.T) {
	s := Default(core.SchemeIncentive)
	s.Nodes = 100
	s.ClassSplit = true
	_, specs, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[core.MessageClass]int{}
	for _, sp := range specs {
		counts[sp.Class]++
	}
	if counts[core.ClassHighEnd] != 50 || counts[core.ClassMidRange] != 30 || counts[core.ClassLowEnd] != 20 {
		t.Errorf("class split = %v, want 50/30/20", counts)
	}
}

func TestBuildRoles(t *testing.T) {
	s := Default(core.SchemeIncentive)
	s.Nodes = 100
	s.CommanderPercent = 10
	_, specs, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[ident.Role]int{}
	for _, sp := range specs {
		counts[sp.Role]++
	}
	if counts[ident.RoleCommander] != 10 || counts[ident.RoleOperator] != 90 {
		t.Errorf("role counts = %v", counts)
	}
}

func TestBuildOverrides(t *testing.T) {
	s := Default(core.SchemeIncentive)
	s.Nodes = 10
	s.Duration = time.Hour
	s.AreaKm2 = 2
	s.InitialTokens = 50
	s.MeanMessageInterval = time.Minute
	s.Step = 2 * time.Second
	s.DisableReputation = true
	s.DisableEnrichment = true
	s.PlainBuffers = true
	s.NoPrepay = true
	cfg, _, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Duration != time.Hour || cfg.Incentive.InitialTokens != 50 ||
		cfg.Workload.MeanInterval != time.Minute || cfg.Step != 2*time.Second {
		t.Errorf("overrides not applied: %+v", cfg)
	}
	if cfg.ReputationEnabled || cfg.EnrichmentEnabled || cfg.PriorityBuffers {
		t.Error("ablation flags not applied")
	}
	if cfg.Incentive.PrepayFraction != 0 {
		t.Error("NoPrepay not applied")
	}
	if cfg.Area.Area() < 1.9e6 || cfg.Area.Area() > 2.1e6 {
		t.Errorf("area = %v m²", cfg.Area.Area())
	}
}

func TestNewRouter(t *testing.T) {
	for _, name := range RouterNames() {
		r, err := NewRouter(name)
		if err != nil {
			t.Fatalf("NewRouter(%q): %v", name, err)
		}
		if r.Name() != name {
			t.Errorf("NewRouter(%q).Name() = %q", name, r.Name())
		}
	}
	if _, err := NewRouter("bogus"); err == nil {
		t.Error("unknown router name must fail")
	}
}

func TestBuildRouterName(t *testing.T) {
	s := Default(core.SchemeIncentive)
	s.Nodes = 5
	s.RouterName = "prophet"
	cfg1, _, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, _, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if cfg1.Router == nil || cfg2.Router == nil {
		t.Fatal("router not built")
	}
	if cfg1.Router == cfg2.Router {
		t.Error("RouterName must build a fresh instance per Build")
	}
}

func TestBuildEngineRunsEndToEnd(t *testing.T) {
	s := Default(core.SchemeIncentive)
	s.Nodes = 20
	s.AreaKm2 = 0.2
	s.Duration = 10 * time.Minute
	s.MeanMessageInterval = 3 * time.Minute
	eng, err := BuildEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Created == 0 {
		t.Error("no messages generated")
	}
}
