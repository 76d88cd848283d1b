package core_test

import (
	"context"
	"testing"
	"time"

	"dtnsim/internal/behavior"
	"dtnsim/internal/core"
	"dtnsim/internal/enrich"
	"dtnsim/internal/message"
	"dtnsim/internal/scenario"
)

func TestWorkloadValidation(t *testing.T) {
	vocab, err := enrich.NewVocabulary(10)
	if err != nil {
		t.Fatal(err)
	}
	good := core.DefaultWorkload(vocab)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	var disabled core.WorkloadConfig
	if err := disabled.Validate(); err != nil {
		t.Errorf("zero workload (generation disabled) must validate: %v", err)
	}
	// Each message carries six true keywords, so a five-word vocabulary
	// cannot supply them; six words can.
	five, err := enrich.NewVocabulary(5)
	if err != nil {
		t.Fatal(err)
	}
	six, err := enrich.NewVocabulary(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.DefaultWorkload(six).Validate(); err != nil {
		t.Errorf("six-word vocabulary must validate: %v", err)
	}
	tests := []func(*core.WorkloadConfig){
		func(w *core.WorkloadConfig) { w.Vocab = nil },
		func(w *core.WorkloadConfig) { w.Vocab = five },
	}
	for i, mutate := range tests {
		w := core.DefaultWorkload(vocab)
		mutate(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: Validate should fail", i)
		}
	}
}

// TestClassSplitShapesMessages verifies the Figure 5.6 generator classes:
// high-end nodes emit high-priority, high-quality, larger messages.
func TestClassSplitShapesMessages(t *testing.T) {
	spec := scenario.Default(core.SchemeChitChat)
	spec.Nodes = 30
	spec.AreaKm2 = 0.3
	spec.Duration = time.Hour
	spec.ClassSplit = true
	spec.MeanMessageInterval = 10 * time.Minute
	eng, err := scenario.BuildEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Inspect originated messages across node buffers.
	seen := map[message.Priority]int{}
	for _, n := range eng.Nodes() {
		for _, m := range n.Buffer().Messages() {
			if m.Source != n.ID() {
				continue
			}
			seen[m.Priority]++
			switch m.Priority {
			case message.PriorityHigh:
				if m.Quality != 0.9 || m.Size <= 1<<20 {
					t.Fatalf("high-end message has quality %v size %d", m.Quality, m.Size)
				}
			case message.PriorityLow:
				if m.Quality != 0.3 || m.Size >= 1<<20 {
					t.Fatalf("low-end message has quality %v size %d", m.Quality, m.Size)
				}
			}
		}
	}
	if seen[message.PriorityHigh] == 0 || seen[message.PriorityMedium] == 0 || seen[message.PriorityLow] == 0 {
		t.Errorf("class split generated %v", seen)
	}
}

// TestMaliciousLowQualityOverride checks the "generate poor quality
// messages" behaviour: a malicious low-quality node's originations carry
// the degraded quality regardless of class.
func TestMaliciousLowQualityOverride(t *testing.T) {
	spec := scenario.Default(core.SchemeIncentive)
	spec.Nodes = 10
	spec.AreaKm2 = 0.1
	spec.Duration = time.Hour
	spec.MaliciousPercent = 100
	spec.MaliciousLowQuality = true
	spec.MeanMessageInterval = 10 * time.Minute
	eng, err := scenario.BuildEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	checked := 0
	want := behavior.MaliciousQuality
	for _, n := range eng.Nodes() {
		for _, m := range n.Buffer().Messages() {
			if m.Source != n.ID() {
				continue
			}
			checked++
			if m.Quality != want {
				t.Fatalf("malicious message quality %v, want %v", m.Quality, want)
			}
		}
	}
	if checked == 0 {
		t.Skip("no originations survived in buffers this seed")
	}
}

// TestMessageClassStrings covers the class labels.
func TestMessageClassStrings(t *testing.T) {
	names := map[core.MessageClass]string{
		core.ClassMixed:    "mixed",
		core.ClassHighEnd:  "high-end",
		core.ClassMidRange: "mid-range",
		core.ClassLowEnd:   "low-end",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("class %d = %q, want %q", int(c), got, want)
		}
	}
	if core.MessageClass(99).String() == "" {
		t.Error("unknown class must render")
	}
}

// TestSchemeAndModelStrings covers the enum labels.
func TestSchemeAndModelStrings(t *testing.T) {
	if core.SchemeChitChat.String() != "chitchat" || core.SchemeIncentive.String() != "incentive" {
		t.Error("scheme names wrong")
	}
	if core.Scheme(9).String() == "" {
		t.Error("unknown scheme must render")
	}
	if core.ReputationDRM.String() != "drm" || core.ReputationBeta.String() != "beta" {
		t.Error("reputation model names wrong")
	}
	if core.ReputationModel(9).String() == "" {
		t.Error("unknown model must render")
	}
}
