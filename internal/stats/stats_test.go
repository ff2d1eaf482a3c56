package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// addAll adds each of xs to s through Add.
func addAll(s *Sample, xs ...float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Var() != 0 || s.CI95() != 0 {
		t.Fatal("empty sample stats not zero")
	}
	if !math.IsInf(s.Min(), 1) || !math.IsInf(s.Max(), -1) {
		t.Fatal("empty min/max not infinite")
	}
}

func TestMoments(t *testing.T) {
	var s Sample
	addAll(&s, 2, 4, 4, 4, 5, 5, 7, 9)
	if s.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	// Unbiased variance of this classic set is 32/7.
	if !almostEq(s.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("var = %v, want %v", s.Var(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	var a, b Sample
	for i := 0; i < 10; i++ {
		a.Add(float64(i % 3))
	}
	for i := 0; i < 1000; i++ {
		b.Add(float64(i % 3))
	}
	if b.CI95() >= a.CI95() {
		t.Fatalf("CI did not shrink: %v vs %v", b.CI95(), a.CI95())
	}
}

func TestQuantileInterpolates(t *testing.T) {
	var s Sample
	addAll(&s, 1, 2, 3, 4, 5)
	cases := map[float64]float64{0: 1, 25: 2, 50: 3, 75: 4, 90: 4.6, 100: 5}
	for p, want := range cases {
		if got, err := s.Quantile(p); err != nil || !almostEq(got, want, 1e-12) {
			t.Fatalf("P%.0f = %v, %v; want %v", p, got, err, want)
		}
	}
	one := Sample{}
	one.Add(7)
	if q, err := one.Quantile(95); err != nil || q != 7 {
		t.Fatalf("single-element quantile = %v, %v", q, err)
	}
}

func TestSummarize(t *testing.T) {
	var s Sample
	addAll(&s, 1, 2, 3)
	sum := s.Summarize()
	if sum.N != 3 || sum.Mean != 2 || sum.Min != 1 || sum.Max != 3 {
		t.Fatalf("summary wrong: %+v", sum)
	}
}

func TestSlowdown(t *testing.T) {
	if got := Slowdown(110, 100); !almostEq(got, 10, 1e-12) {
		t.Fatalf("Slowdown(110,100) = %v", got)
	}
	if got := Slowdown(100, 100); got != 0 {
		t.Fatalf("Slowdown(100,100) = %v", got)
	}
	if got := Slowdown(400, 100); !almostEq(got, 300, 1e-12) {
		t.Fatalf("Slowdown(400,100) = %v", got)
	}
	if got := Slowdown(5, 0); got != 0 {
		t.Fatalf("Slowdown with zero baseline = %v, want 0", got)
	}
}

// Property: mean lies within [min, max]; variance is non-negative.
func TestQuickMomentsSane(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			s.Add(float64(v))
		}
		m := s.Mean()
		return m >= s.Min()-1e-9 && m <= s.Max()+1e-9 && s.Var() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in p.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []int16, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			s.Add(float64(v))
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		qa, errA := s.Quantile(a)
		qb, errB := s.Quantile(b)
		return errA == nil && errB == nil && qa <= qb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
