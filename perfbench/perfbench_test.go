package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shrink scales a workload down to a few seconds of work, keeping every
// other setting.
func shrink(t *testing.T, w workload) workload {
	switch w := w.(type) {
	case *engineWorkload:
		c := *w
		c.spec.Nodes = 40
		c.spec.AreaKm2 = 0.4
		c.spec.Duration = 4 * time.Minute
		c.checkpoint = time.Minute
		c.extraSetups = 1
		return &c
	case *suiteWorkload:
		c := *w
		c.profile.Nodes = 12
		c.profile.AreaKm2 = 0.12
		c.profile.Duration = 40 * time.Minute // one Figure 5.4 rating sample
		c.samples = 1
		return &c
	}
	t.Fatalf("no tiny scale for %T", w)
	return nil
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	var listed []string
	for _, w := range loadSpec(t).Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	if got := workloadNames(); !slices.Equal(got, listed) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, listed)
	}
}

// TestTinyWorkloads runs every workload at a tiny scale, untraced and
// traced, and checks that each emits every metric BENCHMARK.json names,
// with its unit, and passes its output checks.
func TestTinyWorkloads(t *testing.T) {
	s := loadSpec(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := shrink(t, workloads[name])
			for _, traced := range []bool{false, true} {
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				out, err := measure(w, 3, 2*time.Second, traced)
				if err != nil {
					t.Fatal(err)
				}
				res := out.result
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.Name, got, m.Unit)
					}
				}
				_, isEngine := w.(*engineWorkload)
				if traced && isEngine && len(out.traj) == 0 {
					t.Errorf("traced run recorded no trajectory")
				}
			}
		})
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "table51", "-trace", "2"},
		{"-workload", "table51", "-seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
