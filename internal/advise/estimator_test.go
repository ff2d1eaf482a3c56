package advise

import (
	"math"
	"math/rand"
	"testing"
)

// testEstimator returns an empty estimator with its own weight table
// (a Store's estimators share one).
func testEstimator(cfg EstimatorConfig) *Estimator {
	return newEstimator(cfg, weightTable(cfg))
}

func TestEstimatorEmpty(t *testing.T) {
	e := testEstimator(EstimatorConfig{})
	est := e.Estimate()
	if est.TotalEvents != 0 || est.MTBCENanos != 0 || est.CEPerYear != 0 {
		t.Fatalf("empty estimator produced %+v", est)
	}
}

func TestEstimatorSingleEvent(t *testing.T) {
	e := testEstimator(EstimatorConfig{})
	e.Add(90e9)
	est := e.Estimate()
	if est.TotalEvents != 1 || est.WindowEvents != 1 {
		t.Fatalf("counts: %+v", est)
	}
	if est.FirstNanos != 90e9 || est.LastNanos != 90e9 {
		t.Fatalf("bounds: %+v", est)
	}
	// One event, one bucket of observation: MTBCE = bucket width.
	if est.MTBCENanos != 60e9 {
		t.Fatalf("MTBCE = %d, want bucket width 60e9", est.MTBCENanos)
	}
}

func TestEstimatorUniformRate(t *testing.T) {
	// Events every 10s for an hour with decay effectively off: the MLE
	// must recover MTBCE ~ 10s.
	e := testEstimator(EstimatorConfig{HalfLifeNanos: 1e18})
	for ts := int64(10e9); ts <= 3600e9; ts += 10e9 {
		e.Add(ts)
	}
	e.Trim()
	est := e.Estimate()
	got := float64(est.MTBCENanos)
	if math.Abs(got-10e9)/10e9 > 0.02 {
		t.Fatalf("MTBCE = %v ns, want ~10e9", got)
	}
	wantYr := 365.25 * 24 * 3600 / 10
	if math.Abs(est.CEPerYear-wantYr)/wantYr > 0.02 {
		t.Fatalf("CEPerYear = %v, want ~%v", est.CEPerYear, wantYr)
	}
}

func TestEstimatorDecayFavorsRecent(t *testing.T) {
	// Same 200 events; one stream had its burst long ago, the other just
	// now. Decay must weight the recent burst harder: lower MTBCE.
	cfg := EstimatorConfig{HalfLifeNanos: 3600e9}
	old := testEstimator(cfg)
	recent := testEstimator(cfg)
	base := int64(1e15)
	span := int64(12) * 3600e9 // 12h observed in both streams
	for i := int64(0); i < 200; i++ {
		old.Add(base + i*60e9/4)           // burst in the first ~50min
		recent.Add(base + span - i*60e9/4) // burst in the last ~50min
	}
	old.Add(base + span) // stretch both observation spans to 12h
	recent.Add(base)
	old.Trim()
	recent.Trim()
	om, rm := old.Estimate().MTBCENanos, recent.Estimate().MTBCENanos
	if rm >= om {
		t.Fatalf("recent-burst MTBCE %d not below old-burst MTBCE %d", rm, om)
	}
}

func TestEstimatorTrimDropsOldBuckets(t *testing.T) {
	e := testEstimator(EstimatorConfig{})
	e.Add(60e9)                        // bucket 1
	e.Add((windowBuckets + 90) * 60e9) // cutoff becomes bucket 91
	e.Trim()
	est := e.Estimate()
	if est.TotalEvents != 2 {
		t.Fatalf("TotalEvents = %d, want 2 (trim must not forget history)", est.TotalEvents)
	}
	if est.WindowEvents != 1 {
		t.Fatalf("WindowEvents = %d, want 1 after trim", est.WindowEvents)
	}
	if est.FirstNanos != 60e9 || est.LastNanos != (windowBuckets+90)*60e9 {
		t.Fatalf("bounds survive trim: %+v", est)
	}
}

func TestEstimatorTrimIdempotent(t *testing.T) {
	a, b := testEstimator(EstimatorConfig{}), testEstimator(EstimatorConfig{})
	for _, ts := range []int64{60e9, 120e9, (windowBuckets + 400) * 60e9, (windowBuckets + 401) * 60e9} {
		a.Add(ts)
		b.Add(ts)
	}
	a.Trim()
	b.Trim()
	b.Trim()
	b.Trim()
	if a.Estimate() != b.Estimate() {
		t.Fatalf("repeated trims changed the estimate: %+v vs %+v", a.Estimate(), b.Estimate())
	}
}

// TestEstimatorOrderIndependence is the core determinism property: the
// same multiset of timestamps, inserted in any order with trims
// interleaved anywhere, must yield a bit-identical estimate.
func TestEstimatorOrderIndependence(t *testing.T) {
	cfg := EstimatorConfig{HalfLifeNanos: 3600e9}
	rnd := rand.New(rand.NewSource(7))
	ts := make([]int64, 500)
	for i := range ts {
		ts[i] = 1 + rnd.Int63n(2*windowBuckets*60e9) // spans beyond the window to exercise trim
	}
	ref := testEstimator(cfg)
	for _, v := range ts {
		ref.Add(v)
	}
	ref.Trim()
	want := ref.Estimate()

	for trial := 0; trial < 20; trial++ {
		perm := rnd.Perm(len(ts))
		e := testEstimator(cfg)
		for i, pi := range perm {
			e.Add(ts[pi])
			if i%17 == 0 {
				e.Trim() // trims anywhere must not change the converged state
			}
		}
		e.Trim()
		if got := e.Estimate(); got != want {
			t.Fatalf("trial %d: permuted insertion changed estimate:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

func TestQuantizeMTBCE(t *testing.T) {
	if QuantizeMTBCE(0) != 0 || QuantizeMTBCE(-5) != 0 {
		t.Fatal("non-positive inputs must quantize to 0")
	}
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v := 1 + rnd.Int63n(int64(1e15))
		q := QuantizeMTBCE(v)
		if q <= 0 {
			t.Fatalf("QuantizeMTBCE(%d) = %d", v, q)
		}
		if rel := math.Abs(float64(q-v)) / float64(v); rel > 0.045 {
			t.Fatalf("QuantizeMTBCE(%d) = %d, relative error %v > 4.5%%", v, q, rel)
		}
		if qq := QuantizeMTBCE(q); qq != q {
			t.Fatalf("quantization not idempotent: %d -> %d -> %d", v, q, qq)
		}
	}
	// Nearby values share a representative — that's what makes the
	// recommendation cache effective.
	if QuantizeMTBCE(1000_000_000) != QuantizeMTBCE(1000_100_000) {
		t.Fatal("values 0.01% apart landed in different quanta")
	}
}
