package stats

// Edge-case regression tests: Quantile's non-panicking contract for
// empty samples (fully saturated sweeps produce them legitimately) and
// out-of-range percentiles.

import (
	"errors"
	"math"
	"testing"
)

func TestQuantileEmptySample(t *testing.T) {
	var s Sample
	v, err := s.Quantile(50)
	if !errors.Is(err, ErrEmptySample) {
		t.Fatalf("err = %v, want ErrEmptySample", err)
	}
	if v != 0 {
		t.Fatalf("value = %v, want 0", v)
	}
}

func TestQuantileOutOfRange(t *testing.T) {
	var s Sample
	addAll(&s, 1, 2, 3)
	for _, p := range []float64{-0.001, 100.001, math.NaN()} {
		if _, err := s.Quantile(p); err == nil {
			t.Errorf("p=%v accepted", p)
		}
	}
}
