// Package stats provides the summary statistics used by the experiment
// drivers: means, confidence intervals, percentiles and slowdowns over
// repeated simulation results.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations. The zero value is ready to use.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns a copy of the observations.
func (s *Sample) Values() []float64 { return append([]float64(nil), s.xs...) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Var returns the unbiased sample variance (0 for fewer than two
// observations).
func (s *Sample) Var() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (+Inf when empty).
func (s *Sample) Min() float64 {
	min := math.Inf(1)
	for _, x := range s.xs {
		if x < min {
			min = x
		}
	}
	return min
}

// Max returns the largest observation (-Inf when empty).
func (s *Sample) Max() float64 {
	max := math.Inf(-1)
	for _, x := range s.xs {
		if x > max {
			max = x
		}
	}
	return max
}

// CI95 returns the half-width of the 95% confidence interval of the
// mean under the normal approximation, 1.96 · s / √n, for every n.
// With few samples that is narrower than the Student-t interval: at the
// 3 repetitions reproduce runs by default the t half-width is 2.19 times
// this value, and at 2 it is 6.5 times.
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(n))
}

// ErrEmptySample is returned by Quantile on a sample with no
// observations — the legitimate outcome of a fully saturated sweep,
// where every repetition is excluded from the slowdown sample.
var ErrEmptySample = fmt.Errorf("stats: empty sample")

// Quantile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation. It never panics: an empty sample returns
// ErrEmptySample and an out-of-range p returns an error, so report and
// serving paths can surface a clean failure for all-saturated results.
func (s *Sample) Quantile(p float64) (float64, error) {
	if len(s.xs) == 0 {
		return 0, ErrEmptySample
	}
	if p < 0 || p > 100 || math.IsNaN(p) {
		return 0, fmt.Errorf("stats: percentile %v out of range [0, 100]", p)
	}
	sorted := s.Values()
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Summary is a one-line description of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI95   float64
	Min    float64
	Max    float64
}

// Summarize returns the sample's summary.
func (s *Sample) Summarize() Summary {
	return Summary{
		N: s.N(), Mean: s.Mean(), StdDev: s.StdDev(),
		CI95: s.CI95(), Min: s.Min(), Max: s.Max(),
	}
}

// Slowdown converts a perturbed and baseline makespan to the percentage
// slowdown used throughout the paper's figures.
func Slowdown(perturbed, baseline int64) float64 {
	if baseline <= 0 {
		return 0
	}
	return 100 * (float64(perturbed) - float64(baseline)) / float64(baseline)
}
