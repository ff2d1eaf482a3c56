// Package rng provides deterministic pseudo-random number generation for
// the simulator.
//
// Simulation results must be exactly reproducible from a single integer
// seed, and independent streams must be cheap to derive (one per node for
// correctable-error arrivals, one per repetition, ...). The package
// implements xoshiro256** seeded via SplitMix64, which is the combination
// recommended by the xoshiro authors: SplitMix64 guarantees a well-mixed
// 256-bit state even from small or correlated seeds.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 advances a SplitMix64 state and returns the next output.
// The simulator uses it only for seeding; faultinject draws its
// per-site fire/no-fire streams from it directly.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 is the SplitMix64 finalizer applied to x: a cheap, high-quality
// 64-bit mixing function. It is the module's canonical way to hash
// small integer keys into well-distributed 64-bit values — the cluster
// layer derives its per-cell seeds from it — so every layer that needs
// "a deterministic number from a key" agrees on one construction.
func Mix64(x uint64) uint64 {
	return SplitMix64(&x)
}

// Source is a xoshiro256** pseudo-random generator. The zero value is not
// valid; construct with New, NewStream or Stream.
type Source struct {
	s [4]uint64
}

// New returns a generator deterministically derived from seed.
func New(seed uint64) *Source {
	src := seeded(seed)
	return &src
}

// seeded is New by value.
func seeded(seed uint64) Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = SplitMix64(&sm)
	}
	// The all-zero state is invalid for xoshiro; SplitMix64 cannot emit
	// four zeros in a row, but guard anyway so the invariant is local.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return src
}

// NewStream returns a generator for an independent stream identified by
// (seed, stream). Distinct stream identifiers yield statistically
// independent sequences for the same base seed; this is how per-node and
// per-repetition generators are derived.
func NewStream(seed, stream uint64) *Source {
	src := Stream(seed, stream)
	return &src
}

// Stream is NewStream by value, for a caller that holds many streams in
// one table instead of one allocation each.
func Stream(seed, stream uint64) Source {
	// Mix the stream id through SplitMix64 before combining so that
	// consecutive stream ids (0,1,2,...) do not produce correlated seeds.
	sm := stream
	mixed := SplitMix64(&sm)
	return seeded(seed ^ (mixed * 0x9e3779b97f4a7c15) ^ (stream << 1))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits scaled by 2^-53; the standard unbiased construction.
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniformly distributed value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and avoids the
	// modulo in the common case.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Exp returns an exponentially distributed value with the given mean.
// Mean must be positive.
func (r *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp called with non-positive mean")
	}
	// Inverse CDF. Guard against log(0) by excluding u == 0.
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Marsaglia polar method.
func (r *Source) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
