package advise

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// refEstimator is the map-based Estimator the ascending bucket run
// replaced, kept verbatim as the oracle TestEstimatorMatchesReference
// holds the run to: buckets in a map, Estimate sorting the keys and
// evaluating every weight with math.Exp2.
type refEstimator struct {
	cfg EstimatorConfig

	buckets map[int64]uint64 // bucket index -> event count (trimmed)
	minB    int64            // smallest bucket index ever observed
	maxB    int64            // largest bucket index ever observed
	total   uint64           // events ever ingested (incl. trimmed)
	firstNs int64            // min event timestamp ever observed
	lastNs  int64            // max event timestamp ever observed
}

func newRefEstimator(cfg EstimatorConfig) *refEstimator {
	return &refEstimator{cfg: cfg.withDefaults(), buckets: map[int64]uint64{}}
}

func (e *refEstimator) Add(tsNanos int64) {
	b := tsNanos / bucketNanos
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
	e.buckets[b]++
	e.total++
}

func (e *refEstimator) Trim() {
	if e.total == 0 {
		return
	}
	cutoff := e.maxB - windowBuckets + 1
	for b := range e.buckets {
		if b < cutoff {
			delete(e.buckets, b)
		}
	}
}

func (e *refEstimator) Estimate() Estimate {
	est := Estimate{TotalEvents: e.total, FirstNanos: e.firstNs, LastNanos: e.lastNs}
	if e.total == 0 {
		return est
	}
	start := e.maxB - windowBuckets + 1
	if e.minB > start {
		start = e.minB
	}
	keys := make([]int64, 0, len(e.buckets))
	for b := range e.buckets {
		keys = append(keys, b)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	halfLives := float64(bucketNanos) / float64(e.cfg.HalfLifeNanos)
	weightAt := func(b int64) float64 {
		return math.Exp2(-float64(e.maxB-b) * halfLives)
	}
	var wEvents float64
	for _, b := range keys {
		est.WindowEvents += e.buckets[b]
		wEvents += weightAt(b) * float64(e.buckets[b])
	}
	var wTime float64
	for b := start; b <= e.maxB; b++ {
		wTime += weightAt(b) * float64(bucketNanos)
	}
	if wEvents <= 0 || wTime <= 0 {
		return est
	}
	mtbce := wTime / wEvents
	est.MTBCENanos = int64(math.Round(mtbce))
	est.CEPerYear = 365.25 * 24 * 3600 * 1e9 / mtbce
	return est
}

// TestEstimatorMatchesReference: random timestamp multisets — in order,
// reversed, shuffled, bursts into one bucket, spans beyond the window —
// with Trim interleaved anywhere (and Estimate called with and without a
// Trim before it) give an Estimate equal by == to the map-based
// reference's, for half-lives of 4 h (the default), 1 h, 10 min and
// 1e18 ns.
func TestEstimatorMatchesReference(t *testing.T) {
	configs := []EstimatorConfig{{}, {HalfLifeNanos: 3600e9}, {HalfLifeNanos: 600e9}, {HalfLifeNanos: 1e18}}
	rnd := rand.New(rand.NewSource(25))
	const width = bucketNanos * windowBuckets
	for ci, cfg := range configs {
		for trial := 0; trial < 60; trial++ {
			ts := make([]int64, 1+rnd.Intn(400))
			base := int64(1 + rnd.Int63n(1e18))
			span := []int64{1, width / 2, 3 * width, 40 * width}[trial%4]
			for i := range ts {
				ts[i] = base + rnd.Int63n(span+1)
			}
			switch trial % 3 {
			case 0:
				sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
			case 1:
				sort.Slice(ts, func(i, j int) bool { return ts[i] > ts[j] })
			}
			e, ref := testEstimator(cfg), newRefEstimator(cfg)
			check := func(when string) {
				t.Helper()
				if got, want := e.Estimate(), ref.Estimate(); got != want {
					t.Fatalf("config %d trial %d %s:\n got %+v\nwant %+v", ci, trial, when, got, want)
				}
			}
			check("empty")
			for _, v := range ts {
				e.Add(v)
				ref.Add(v)
				if rnd.Intn(8) == 0 {
					e.Trim()
					ref.Trim()
				}
				if rnd.Intn(16) == 0 {
					check("mid-stream")
				}
			}
			check("untrimmed")
			e.Trim()
			ref.Trim()
			check("trimmed")
		}
	}
}

// TestEstimateDoesNotAllocate: the run is walked in place.
func TestEstimateDoesNotAllocate(t *testing.T) {
	e := testEstimator(EstimatorConfig{})
	for b := int64(1); b <= 3000; b++ {
		e.Add(agentEpoch + b*60e9)
	}
	e.Trim()
	if allocs := testing.AllocsPerRun(100, func() { e.Estimate() }); allocs != 0 {
		t.Fatalf("Estimate allocates %v times per call, want 0", allocs)
	}
}

// TestEstimatorMemoryNoLargerThanMap: a node whose window has been full
// for a while holds no more heap in the bucket run than the map it
// replaced held — measured after the bench's pattern, 250-bucket
// batches with a Trim after each.
func TestEstimatorMemoryNoLargerThanMap(t *testing.T) {
	fill := func(add func(int64), trim func()) {
		for batch := int64(0); batch < 12; batch++ {
			for b := int64(0); b < 250; b++ {
				add(agentEpoch + (batch*250+b)*60e9)
			}
			trim()
		}
	}
	heap := func(build func() any) int64 {
		const n = 32
		keep := make([]any, n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = build()
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		return (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	}
	weights := weightTable(EstimatorConfig{}) // shared per Store, not per node
	run := heap(func() any {
		e := newEstimator(EstimatorConfig{}, weights)
		fill(e.Add, e.Trim)
		return e
	})
	ref := heap(func() any {
		e := newRefEstimator(EstimatorConfig{})
		fill(e.Add, e.Trim)
		return e
	})
	t.Logf("per-node heap at a full window: bucket run %d B, map %d B", run, ref)
	if run > ref {
		t.Fatalf("bucket run holds %d B per node, more than the map's %d B", run, ref)
	}
}
