package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	base := uint64(7)
	a := NewStream(base, 0)
	b := NewStream(base, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 produced %d identical draws", same)
	}
}

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(99, 1234)
	b := NewStream(99, 1234)
	c := Stream(99, 1234) // by value, the same stream
	for i := 0; i < 100; i++ {
		if x := a.Uint64(); x != b.Uint64() || x != c.Uint64() {
			t.Fatal("identical streams diverged")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d far from expected %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(17)
	for _, mean := range []float64{1e-9, 1.0, 3600.0} {
		const n = 200000
		sum := 0.0
		for i := 0; i < n; i++ {
			v := r.Exp(mean)
			if v < 0 {
				t.Fatalf("Exp(%v) returned negative %v", mean, v)
			}
			sum += v
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.02 {
			t.Fatalf("Exp mean = %v, want ~%v", got, mean)
		}
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(-1) did not panic")
		}
	}()
	New(1).Exp(-1)
}

func TestNormalMoments(t *testing.T) {
	r := New(19)
	const n = 200000
	mean, stddev := 5.0, 2.0
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(mean, stddev)
		sum += v
		sumSq += v * v
	}
	m := sum / n
	sd := math.Sqrt(sumSq/n - m*m)
	if math.Abs(m-mean) > 0.05 {
		t.Fatalf("normal mean = %v, want ~%v", m, mean)
	}
	if math.Abs(sd-stddev) > 0.05 {
		t.Fatalf("normal stddev = %v, want ~%v", sd, stddev)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

// Property: every (seed, stream) pair reproduces its own sequence, and
// Float64 stays in range regardless of seed.
func TestQuickStreamReproducible(t *testing.T) {
	f := func(seed, stream uint64) bool {
		a := NewStream(seed, stream)
		b := NewStream(seed, stream)
		for i := 0; i < 16; i++ {
			av := a.Float64()
			if av < 0 || av >= 1 {
				return false
			}
			if av != b.Float64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: exponential draws are non-negative for any positive mean.
func TestQuickExpNonNegative(t *testing.T) {
	f := func(seed uint64, meanBits uint32) bool {
		mean := 1e-9 + float64(meanBits)/1000.0
		r := New(seed)
		for i := 0; i < 8; i++ {
			if r.Exp(mean) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Exp(1.0)
	}
	_ = sink
}
