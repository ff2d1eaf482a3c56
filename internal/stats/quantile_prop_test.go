package stats

// Property tests for Quantile against a brute-force reference:
// boundary behavior at p=0 and p=100, agreement with an independently
// written linear-interpolation implementation on random samples of odd
// and even size, monotonicity in p, and invariance to input order.
// These pin the interpolation convention (R type-7 / numpy "linear":
// pos = p/100*(n-1)) so a future rewrite cannot silently switch to a
// different quantile definition and shift every figure's tail stats.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refQuantile is the brute-force reference: sort a copy, compute the
// fractional position directly, interpolate. Deliberately written
// without sharing any code with Quantile.
func refQuantile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func TestQuantileBoundariesAreMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 4, 5, 8, 17, 100} {
		var s Sample
		for i := 0; i < n; i++ {
			s.Add(rng.NormFloat64() * 100)
		}
		q0, err := s.Quantile(0)
		if err != nil {
			t.Fatal(err)
		}
		if q0 != s.Min() {
			t.Errorf("n=%d: Quantile(0) = %v, want min %v", n, q0, s.Min())
		}
		q100, err := s.Quantile(100)
		if err != nil {
			t.Fatal(err)
		}
		if q100 != s.Max() {
			t.Errorf("n=%d: Quantile(100) = %v, want max %v", n, q100, s.Max())
		}
	}
}

func TestQuantileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ps := []float64{0, 1, 10, 25, 33.3, 50, 66.7, 75, 90, 95, 99, 99.9, 100}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40) // covers odd and even sizes including n=1,2
		xs := make([]float64, n)
		for i := range xs {
			if rng.Intn(4) == 0 && i > 0 {
				xs[i] = xs[rng.Intn(i)] // inject duplicates: ties stress lo==hi
			} else {
				xs[i] = math.Round(rng.NormFloat64()*1000) / 8
			}
		}
		var s Sample
		addAll(&s, xs...)
		for _, p := range ps {
			got, err := s.Quantile(p)
			if err != nil {
				t.Fatalf("n=%d p=%v: %v", n, p, err)
			}
			want := refQuantile(xs, p)
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("n=%d p=%v: Quantile = %v, reference = %v\nxs = %v", n, p, got, want, xs)
			}
		}
	}
}

func TestQuantileMonotoneInP(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		var s Sample
		for i, n := 0, 2+rng.Intn(30); i < n; i++ {
			s.Add(rng.Float64() * 1e6)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 0.5 {
			q, err := s.Quantile(p)
			if err != nil {
				t.Fatal(err)
			}
			if q < prev {
				t.Fatalf("trial %d: Quantile(%v) = %v < Quantile(%v) = %v", trial, p, q, p-0.5, prev)
			}
			prev = q
		}
	}
}

func TestQuantileOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	xs := make([]float64, 23)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	var a Sample
	addAll(&a, xs...)
	for trial := 0; trial < 10; trial++ {
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		var b Sample
		addAll(&b, xs...)
		for _, p := range []float64{0, 12.5, 50, 87.5, 100} {
			qa, _ := a.Quantile(p)
			qb, _ := b.Quantile(p)
			if qa != qb {
				t.Fatalf("p=%v: quantile depends on input order: %v vs %v", p, qa, qb)
			}
		}
	}
}

// TestQuantileDoesNotMutateSample: Quantile sorts a copy; the caller's
// observation order (which Values exposes) must survive.
func TestQuantileDoesNotMutateSample(t *testing.T) {
	var s Sample
	addAll(&s, 3, 1, 2)
	if _, err := s.Quantile(50); err != nil {
		t.Fatal(err)
	}
	got := s.Values()
	want := []float64{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Quantile reordered the sample: %v", got)
		}
	}
}
