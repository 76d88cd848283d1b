package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dtnsim/internal/sim"
)

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.StdDev() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 {
		t.Error("empty summary must be all zero")
	}
}

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %v", s.Mean())
	}
	// Sample std of this classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev()-want) > 1e-12 {
		t.Errorf("std = %v, want %v", s.StdDev(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryPercentiles(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := s.Percentile(95); got < 95 || got > 96.1 {
		t.Errorf("p95 = %v", got)
	}
}

func TestSummaryPercentileMonotone(t *testing.T) {
	rng := sim.NewRNG(5)
	check := func(seed int64) bool {
		local := sim.NewRNG(seed)
		var s Summary
		n := local.Intn(200) + 1
		for i := 0; i < n; i++ {
			s.Add(local.Range(-100, 100))
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return s.Min() <= s.Median() && s.Median() <= s.Max()
	}
	for i := 0; i < 50; i++ {
		if !check(rng.Int63()) {
			t.Fatal("percentiles not monotone")
		}
	}
}

func TestSummaryAddAfterPercentile(t *testing.T) {
	var s Summary
	s.Add(10)
	_ = s.Median()
	s.Add(0) // must re-sort
	if s.Min() != 0 {
		t.Error("summary stale after post-query Add")
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero bins must fail")
	}
	if _, err := NewHistogram(10, 10, 4); err == nil {
		t.Error("empty range must fail")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0, 1.9, 2, 5, 9.9, -5, 50} {
		h.Add(v)
	}
	// -5 clamps into bin 0; 50 clamps into bin 4.
	want := []int{3, 1, 1, 0, 2}
	for i := range want {
		if h.bins[i] != want[i] {
			t.Fatalf("bins = %v, want %v", h.bins, want)
		}
	}
}

func TestHistogramRender(t *testing.T) {
	h, err := NewHistogram(0, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(1)
	h.Add(1.5)
	h.Add(3)
	out := h.Render(10)
	if !strings.Contains(out, "#") {
		t.Errorf("render has no bars:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 2 {
		t.Errorf("render lines:\n%s", out)
	}
}

func TestQuickSummaryMeanMatchesNaive(t *testing.T) {
	check := func(vals []float64) bool {
		var s Summary
		var sum float64
		count := 0
		for _, v := range vals {
			// Skip pathological magnitudes: the naive sum overflows and
			// the comparison becomes meaningless.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				continue
			}
			s.Add(v)
			sum += v
			count++
		}
		if count == 0 {
			return s.Mean() == 0
		}
		return math.Abs(s.Mean()-sum/float64(count)) < 1e-6*(1+math.Abs(sum))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
