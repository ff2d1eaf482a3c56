package advise

import (
	"cmp"
	"math"
	"slices"
)

// EstimatorConfig sizes the windowed MTBCE estimator.
type EstimatorConfig struct {
	// BucketNanos is the time-bucket width events are quantized into.
	// Default 60s.
	BucketNanos int64
	// WindowBuckets is how many trailing buckets are retained; older
	// counts fall out of the estimate entirely. Default 1440 (one day
	// at the default bucket width).
	WindowBuckets int
	// HalfLifeNanos is the exponential-decay half-life applied when
	// the windowed counts are turned into a rate: an event half a
	// half-life old counts sqrt(1/2) as much as a fresh one. Default
	// 4h.
	HalfLifeNanos int64
}

func (c EstimatorConfig) withDefaults() EstimatorConfig {
	if c.BucketNanos <= 0 {
		c.BucketNanos = 60 * 1e9
	}
	if c.WindowBuckets <= 0 {
		c.WindowBuckets = 1440
	}
	if c.HalfLifeNanos <= 0 {
		c.HalfLifeNanos = 4 * 3600 * 1e9
	}
	return c
}

// Estimator is a per-node online MTBCE estimator: a decayed-window MLE
// for the rate of an exponential CE arrival stream.
//
// Order independence is the load-bearing property (see docs/ADVISOR.md):
// ingest batches may arrive from concurrent collectors in any order,
// and the determinism contract requires that merging them in either
// order yields the same state. The state is therefore a commutative
// monoid over integer event counts:
//
//   - events are quantized into absolute time buckets (ts / BucketNanos),
//     so a bucket's identity does not depend on what arrived before it;
//   - per-bucket counts, the total count, and the min/max timestamps
//     are all commutative, associative aggregates;
//   - trimming drops buckets older than maxBucket-WindowBuckets+1, a
//     cutoff derived from the (commutative) max — applying trims in any
//     interleaving converges to the same retained set.
//
// No floating point enters the state. The rate estimate is a pure
// function computed from the canonical integer state at query time, so
// identical states produce bit-identical estimates.
type Estimator struct {
	cfg EstimatorConfig
	w   []float64 // decay weight by bucket age, shared per Store (weightTable)

	buckets []bucket // occupied buckets (trimmed): ascending idx up to sorted,
	sorted  int      // then out-of-order arrivals settle has yet to sort in
	minB    int64    // smallest bucket index ever observed
	maxB    int64    // largest bucket index ever observed
	total   uint64   // events ever ingested (incl. trimmed)
	firstNs int64    // min event timestamp ever observed
	lastNs  int64    // max event timestamp ever observed
}

// bucket is one occupied time bucket: its absolute index and count.
type bucket struct {
	idx int64
	n   uint64
}

func byIdx(b bucket, idx int64) int { return cmp.Compare(b.idx, idx) }

// weightTable returns w[age] = 2^-(age·BucketNanos/HalfLifeNanos) for
// the ages a trimmed window holds (at most 2^16) — the expression
// Estimate evaluates past the table, so a hit is bit-identical to a miss.
func weightTable(cfg EstimatorConfig) []float64 {
	cfg = cfg.withDefaults()
	halfLives := float64(cfg.BucketNanos) / float64(cfg.HalfLifeNanos)
	w := make([]float64, min(cfg.WindowBuckets, 1<<16))
	for age := range w {
		w[age] = math.Exp2(-float64(age) * halfLives)
	}
	return w
}

// NewEstimator returns an empty estimator with its own weight table
// (a Store's estimators share one).
func NewEstimator(cfg EstimatorConfig) *Estimator {
	return newEstimator(cfg, weightTable(cfg))
}

// newEstimator returns an empty estimator reading weights from w, which
// must be weightTable(cfg).
func newEstimator(cfg EstimatorConfig, w []float64) *Estimator {
	return &Estimator{cfg: cfg.withDefaults(), w: w}
}

// Add ingests one event timestamp (nanoseconds, must be positive —
// validated at the HTTP layer). Call Trim after a batch of Adds.
func (e *Estimator) Add(tsNanos int64) {
	b := tsNanos / e.cfg.BucketNanos
	if e.total == 0 {
		e.minB, e.maxB = b, b
		e.firstNs, e.lastNs = tsNanos, tsNanos
	} else {
		if b < e.minB {
			e.minB = b
		}
		if b > e.maxB {
			e.maxB = b
		}
		if tsNanos < e.firstNs {
			e.firstNs = tsNanos
		}
		if tsNanos > e.lastNs {
			e.lastNs = tsNanos
		}
	}
	e.total++
	// Streams arrive mostly in time order: bump or append at the tail.
	// Anything else is appended unsorted. settle sorts it in once the
	// unsorted tail outgrows the run, so a reversed batch costs a sort
	// (O(log n) an event), not an insert (O(n)), and the slice stays
	// within about twice the distinct buckets.
	n := len(e.buckets)
	switch {
	case n > 0 && e.buckets[n-1].idx == b:
		e.buckets[n-1].n++
	case e.sorted == n && (n == 0 || e.buckets[n-1].idx < b):
		e.buckets = append(e.buckets, bucket{idx: b, n: 1})
		e.sorted++
	default:
		e.buckets = append(e.buckets, bucket{idx: b, n: 1})
		if n+1-e.sorted > max(e.sorted, 64) {
			e.settle()
		}
	}
}

// settle sorts the unsorted tail and merges it with the run into a new
// run, summing equal buckets.
func (e *Estimator) settle() {
	if e.sorted == len(e.buckets) {
		return
	}
	run, tail := e.buckets[:e.sorted], e.buckets[e.sorted:]
	slices.SortFunc(tail, func(x, y bucket) int { return byIdx(x, y.idx) })
	merged := make([]bucket, 0, len(e.buckets))
	for len(run) > 0 || len(tail) > 0 {
		var bk bucket
		if len(tail) == 0 || (len(run) > 0 && run[0].idx <= tail[0].idx) {
			bk, run = run[0], run[1:]
		} else {
			bk, tail = tail[0], tail[1:]
		}
		if n := len(merged); n > 0 && merged[n-1].idx == bk.idx {
			merged[n-1].n += bk.n
		} else {
			merged = append(merged, bk)
		}
	}
	e.buckets, e.sorted = merged, len(merged)
}

// Trim drops buckets that have fallen out of the retention window.
// Idempotent; the cutoff depends only on the max bucket, so trim
// placement between merges cannot change the converged state.
func (e *Estimator) Trim() {
	if e.total == 0 {
		return
	}
	e.settle()
	cutoff := e.maxB - int64(e.cfg.WindowBuckets) + 1
	if i, _ := slices.BinarySearchFunc(e.buckets, cutoff, byIdx); i > 0 {
		// Shift down rather than reslice, so the run's capacity is reused.
		e.buckets = e.buckets[:copy(e.buckets, e.buckets[i:])]
		e.sorted = len(e.buckets)
	}
}

// Estimate is the queryable summary of one node's CE stream.
type Estimate struct {
	// TotalEvents counts every event ever ingested for the node.
	TotalEvents uint64 `json:"events"`
	// WindowEvents counts the events still inside the retention window.
	WindowEvents uint64 `json:"window_events"`
	// FirstNanos and LastNanos bound the observed timestamps.
	FirstNanos int64 `json:"first_ns"`
	LastNanos  int64 `json:"last_ns"`
	// MTBCENanos is the decayed-window MLE of the per-node mean time
	// between CEs; 0 when no events have been seen.
	MTBCENanos int64 `json:"mtbce_ns"`
	// CEPerYear is the equivalent annualized rate (0 when unknown).
	CEPerYear float64 `json:"ce_per_year"`
}

// Estimate computes the decayed-window MLE from the canonical state.
//
// With per-bucket weights w(b) = 2^-(age/halflife) anchored at the
// newest bucket, the MLE for an exponential stream observed with decay
// is  rate = sum(w*count) / sum(w*width)  over the observation span —
// the span being every bucket (occupied or not) between the first
// observation (clipped to the window) and the newest bucket. MTBCE is
// the reciprocal. All iteration is in ascending bucket order — the
// run's own order, once settled — so the float reduction is a
// fixed-order, deterministic function of the state.
func (e *Estimator) Estimate() Estimate {
	est := Estimate{TotalEvents: e.total, FirstNanos: e.firstNs, LastNanos: e.lastNs}
	if e.total == 0 {
		return est
	}
	e.settle()
	start := e.maxB - int64(e.cfg.WindowBuckets) + 1
	if e.minB > start {
		start = e.minB
	}

	halfLives := float64(e.cfg.BucketNanos) / float64(e.cfg.HalfLifeNanos)
	weightAt := func(b int64) float64 {
		if age := e.maxB - b; uint64(age) < uint64(len(e.w)) {
			return e.w[age]
		}
		return math.Exp2(-float64(e.maxB-b) * halfLives)
	}
	var wEvents float64
	for _, bk := range e.buckets {
		est.WindowEvents += bk.n
		wEvents += weightAt(bk.idx) * float64(bk.n)
	}
	var wTime float64
	for b := start; b <= e.maxB; b++ {
		wTime += weightAt(b) * float64(e.cfg.BucketNanos)
	}
	if wEvents <= 0 || wTime <= 0 {
		return est
	}
	mtbce := wTime / wEvents
	est.MTBCENanos = int64(math.Round(mtbce))
	est.CEPerYear = 365.25 * 24 * 3600 * 1e9 / mtbce
	return est
}

// quantumPerOctave is the recommendation-cache resolution: MTBCE
// estimates are snapped to 1/8-octave steps (at most ~4.4% relative
// error), so nearby estimator states share one cached policy answer.
const quantumPerOctave = 8

// QuantizeMTBCE snaps an MTBCE estimate to the cache quantum and
// returns the quantum's representative value. Zero stays zero.
func QuantizeMTBCE(mtbceNanos int64) int64 {
	if mtbceNanos <= 0 {
		return 0
	}
	q := math.Round(quantumPerOctave * math.Log2(float64(mtbceNanos)))
	return int64(math.Round(math.Exp2(q / quantumPerOctave)))
}
