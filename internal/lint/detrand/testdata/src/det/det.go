// Package det is a detrand fixture registered as a deterministic
// simulation package: both the module-wide global-rand rule and the
// wall-clock/entropy rules apply here.
package det

import (
	crand "crypto/rand"
	mrand "math/rand"
	rv2 "math/rand/v2"
	"time"
)

func globalRand() int {
	n := mrand.Int()                    // want "rand.Int draws from the global math/rand state"
	n += rv2.IntN(10)                   // want "rand/v2.IntN draws from the global math/rand state"
	mrand.Shuffle(n, func(i, j int) {}) // want "rand.Shuffle draws from the global math/rand state"
	return n
}

func seededOK() int {
	r := mrand.New(mrand.NewSource(42))
	p := rv2.New(rv2.NewPCG(1, 2))
	return r.Int() + p.IntN(10)
}

func wallClock() time.Duration {
	t0 := time.Now()      // want "time.Now reads the wall clock"
	time.Sleep(0)         // want "time.Sleep reads the wall clock"
	return time.Since(t0) // want "time.Since reads the wall clock"
}

func entropy(b []byte) {
	crand.Read(b) // want "crypto/rand.Read draws OS entropy"
}

func constOK() time.Duration {
	// Durations and virtual-time arithmetic are fine; only clock reads
	// are banned.
	return 5 * time.Millisecond
}
