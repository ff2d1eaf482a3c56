package noise

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/faultmodel"
	"repro/internal/rng"
)

func TestPoissonMeanGap(t *testing.T) {
	p := Poisson(5 * ms)
	if p.MeanGap() != float64(5*ms) {
		t.Fatalf("MeanGap = %v", p.MeanGap())
	}
	src := rng.New(1)
	var state uint64
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(p.NextGap(src, &state))
	}
	got := sum / n
	if math.Abs(got-float64(5*ms))/float64(5*ms) > 0.02 {
		t.Fatalf("empirical mean gap %v, want ~%v", got, float64(5*ms))
	}
	if state != 0 {
		t.Fatal("poisson touched the state word")
	}
}

// burstTrain compiles the one-mode faultmodel spec that carries this
// package's former two-state burst process: a row fault emitting
// trains of geometrically distributed length (mean burstLen) whose CEs
// are burstGap apart, separated by quiet gaps of mean quietGap. The
// spec states the long-run mean gap, (quiet + (L-1)*burstGap) / L, and
// faultmodel solves for the quiet gap.
func burstTrain(quietGap, burstGap int64, burstLen float64) faultmodel.Spec {
	mean := (float64(quietGap) + (burstLen-1)*float64(burstGap)) / burstLen
	return faultmodel.Spec{
		MTBCENanos: int64(mean + 0.5),
		Modes:      []faultmodel.Mode{{Kind: "row", Weight: 1, BurstLen: burstLen, BurstGapNanos: burstGap}},
	}
}

// burstGaps returns the first n gaps the spec's process yields on a
// fresh stream.
func burstGaps(t *testing.T, spec faultmodel.Spec, seed uint64, n int) []int64 {
	t.Helper()
	p, err := spec.Process()
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed)
	var state uint64
	out := make([]int64, n)
	for i := range out {
		out[i] = p.NextGap(src, &state)
	}
	return out
}

func meanOf(gaps []int64) float64 {
	sum := 0.0
	for _, g := range gaps {
		sum += float64(g)
	}
	return sum / float64(len(gaps))
}

func TestBurstyValidate(t *testing.T) {
	if _, err := burstTrain(10*s, 10*ms, 5).Process(); err != nil {
		t.Fatalf("valid burst train rejected: %v", err)
	}
	row := func(mtbce int64, burstLen float64, burstGap int64) faultmodel.Spec {
		return faultmodel.Spec{MTBCENanos: mtbce, Modes: []faultmodel.Mode{{Kind: "row", Weight: 1, BurstLen: burstLen, BurstGapNanos: burstGap}}}
	}
	bad := []faultmodel.Spec{
		row(ms, 10, 2*ms), // the train alone outlasts the mean gap: no positive quiet gap
		row(ms, 2, 0),     // a train needs a gap between its CEs
		row(ms, 0.5, 1),   // fractional train length
	}
	for i, spec := range bad {
		if _, err := spec.Process(); err == nil {
			t.Fatalf("bad burst train %d accepted", i)
		}
	}
}

func TestBurstyMeanGapFormula(t *testing.T) {
	// (10s + 9*1ms)/10 = 1.0009s: the process must advertise that mean,
	// and its quiet gaps must average the 10s the formula solves for.
	// Quiet gaps are exponential, so those above a cut T average T +
	// 10s; a cut of 100 burst gaps keeps every train gap out.
	spec := burstTrain(10*s, 1*ms, 10)
	p, err := spec.Process()
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(10*s+9*ms) / 10; math.Abs(p.MeanGap()-want) > 1 {
		t.Fatalf("MeanGap = %v, want %v", p.MeanGap(), want)
	}
	const cut = 100 * ms
	var quiet []int64
	for _, g := range burstGaps(t, spec, 13, 200000) {
		if g > cut {
			quiet = append(quiet, g)
		}
	}
	if got, want := meanOf(quiet), float64(cut+10*s); math.Abs(got-want)/want > 0.03 {
		t.Fatalf("quiet gaps above the cut average %v, want ~%v", got, want)
	}
}

func TestBurstyEmpiricalMeanGap(t *testing.T) {
	spec := burstTrain(50*ms, 500*us, 8)
	got := meanOf(burstGaps(t, spec, 7, 200000))
	want := float64(spec.MTBCENanos)
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("empirical mean gap %v, want ~%v", got, want)
	}
}

func TestBurstyBurstStructure(t *testing.T) {
	// Gaps within a burst must be drawn from the short distribution:
	// classify gaps as quiet (> threshold) or burst, and verify mean
	// burst length.
	threshold := 500 * ms // far between the two regimes
	bursts := 0
	events := 0
	for _, g := range burstGaps(t, burstTrain(10*s, 1*ms, 6), 3, 100000) {
		if g > threshold {
			bursts++
		}
		events++
	}
	meanLen := float64(events) / float64(bursts)
	if math.Abs(meanLen-6)/6 > 0.1 {
		t.Fatalf("mean burst length %v, want ~6", meanLen)
	}
}

func TestBurstyDegeneratesToSingleEvents(t *testing.T) {
	// BurstLen 1 (or unset): every gap is a quiet gap; equivalent to
	// Poisson at the spec's MTBCE.
	one := burstGaps(t, burstTrain(7*ms, 1, 1), 5, 100000)
	if got := meanOf(one); math.Abs(got-float64(7*ms))/float64(7*ms) > 0.02 {
		t.Fatalf("degenerate burst train mean %v, want ~%v", got, float64(7*ms))
	}
	plain := faultmodel.Spec{MTBCENanos: 7 * ms, Modes: []faultmodel.Mode{{Kind: "row", Weight: 1}}}
	unset := burstGaps(t, plain, 5, 100000)
	for i := range one {
		if one[i] != unset[i] {
			t.Fatalf("gap %d: burst_len 1 drew %d, burst_len 0 drew %d", i, one[i], unset[i])
		}
	}
}

func TestCEWithBurstyArrivals(t *testing.T) {
	arr, err := burstTrain(100*ms, 200*us, 10).Process()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewCE(1, Config{Seed: 1, Arrivals: arr, Duration: Fixed(10 * us), Target: AllNodes})
	if err != nil {
		t.Fatal(err)
	}
	end := m.Extend(0, 0, 100*s)
	if end <= 100*s {
		t.Fatal("bursty arrivals produced no detours over 100s")
	}
	// Effective rate: MeanGap ~ (100ms+9*0.2ms)/10 = 10.18ms; over the
	// busy window events ~= end/10.18ms. Burst clustering makes the
	// count noisier than a Poisson process, hence the loose tolerance.
	got := float64(m.Events())
	want := float64(end) / 10.18e6
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("bursty event count %v, want ~%v", got, want)
	}
}

func TestConfigArrivalsOverridesMTBCE(t *testing.T) {
	// With Arrivals set, MTBCE is ignored: load factor must come from
	// the arrival process.
	c := Config{
		MTBCE:    1, // absurd, would be load 1e6
		Arrivals: Poisson(1 * s),
		Duration: Fixed(1 * ms),
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("config with arrivals rejected: %v", err)
	}
	if got := c.LoadFactor(); math.Abs(got-0.001) > 1e-9 {
		t.Fatalf("LoadFactor = %v, want 0.001", got)
	}
}

func TestConfigBadArrivalsRejected(t *testing.T) {
	c := Config{Arrivals: Poisson(0), Duration: Fixed(1)}
	if err := c.Validate(); err == nil {
		t.Fatal("zero-mean arrival process accepted")
	}
}

func TestBurstyDeterministic(t *testing.T) {
	spec := burstTrain(10*ms, 100*us, 4)
	a, c := burstGaps(t, spec, 11, 1000), burstGaps(t, spec, 11, 1000)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("gap %d differs", i)
		}
	}
}

// Property: gaps are never negative and bursts always terminate.
func TestQuickBurstyGapsPositive(t *testing.T) {
	f := func(seed uint64, quietRaw, burstRaw uint16, lenRaw uint8) bool {
		spec := burstTrain(int64(quietRaw)*ms+ms, int64(burstRaw)*us+1, 1+float64(lenRaw%20))
		for _, g := range burstGaps(t, spec, seed, 200) {
			if g < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
