// Package stats provides the small descriptive-statistics toolkit the
// experiment harness and trace analyser share: running summaries,
// percentiles, and fixed-bin histograms. DTN evaluations live on
// distribution summaries — contact durations, inter-contact times,
// delivery latencies — so these are first-class here.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates a stream of values and reports its moments and
// order statistics. Values are retained (DTN run summaries are at most a
// few hundred thousand values), so percentiles are exact.
type Summary struct {
	values []float64
	sum    float64
	sorted bool
}

// Add appends one observation.
func (s *Summary) Add(v float64) {
	s.values = append(s.values, v)
	s.sum += v
	s.sorted = false
}

// N returns the observation count.
func (s *Summary) N() int { return len(s.values) }

// Mean returns the arithmetic mean (zero for an empty summary).
func (s *Summary) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// StdDev returns the sample standard deviation (zero for n < 2).
func (s *Summary) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.values {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

func (s *Summary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Min returns the smallest observation (zero for empty).
func (s *Summary) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[0]
}

// Max returns the largest observation (zero for empty).
func (s *Summary) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[len(s.values)-1]
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between order statistics.
func (s *Summary) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= n {
		return s.values[n-1]
	}
	return s.values[lo]*(1-frac) + s.values[lo+1]*frac
}

// Median returns the 50th percentile.
func (s *Summary) Median() float64 { return s.Percentile(50) }

// String renders a one-line summary.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g std=%.3g min=%.3g p50=%.3g p95=%.3g max=%.3g",
		s.N(), s.Mean(), s.StdDev(), s.Min(), s.Median(), s.Percentile(95), s.Max())
}

// Histogram counts observations into equal-width bins over [Lo, Hi);
// values outside the range land in the first/last bin.
type Histogram struct {
	Lo, Hi float64
	bins   []int
}

// NewHistogram builds a histogram with the given bin count. Bins must be
// positive and Hi must exceed Lo.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: bins must be positive, got %d", bins)
	}
	if hi <= lo {
		return nil, fmt.Errorf("stats: histogram range [%v, %v) empty", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, bins: make([]int, bins)}, nil
}

// Add counts one observation.
func (h *Histogram) Add(v float64) {
	idx := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.bins)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.bins) {
		idx = len(h.bins) - 1
	}
	h.bins[idx]++
}

// Render draws a text histogram with bars scaled to width characters.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	maxCount := 0
	for _, c := range h.bins {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	binWidth := (h.Hi - h.Lo) / float64(len(h.bins))
	for i, c := range h.bins {
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		fmt.Fprintf(&b, "%10.1f–%-10.1f %6d %s\n",
			h.Lo+float64(i)*binWidth, h.Lo+float64(i+1)*binWidth, c, strings.Repeat("#", bar))
	}
	return b.String()
}
