package eventq

import (
	"math/rand"
	"testing"
)

// slabEvents returns every Event slot resident in the queue's backing
// arrays beyond the live entries: the truncated tails of the calendar
// bucket slabs. Pooled simulators keep queues alive across runs, so
// stale payloads here would keep dead run state reachable for the
// lifetime of the pool.
func slabEvents(q *Queue) []Event {
	var out []Event
	for _, b := range q.buckets {
		full := b[:cap(b)]
		out = append(out, full[len(b):]...)
	}
	// Popped agenda prefix, truncated agenda tail, and the resize spill
	// buffer are all retained capacity too.
	out = append(out, q.today[:q.ti]...)
	out = append(out, q.today[:cap(q.today)][len(q.today):]...)
	out = append(out, q.scratch[:cap(q.scratch)]...)
	return out
}

// checkNoRetention requires every retained slab slot to be zeroed.
func checkNoRetention(t *testing.T, q *Queue, when string) {
	t.Helper()
	for i, e := range slabEvents(q) {
		if e != (Event{}) {
			t.Fatalf("%s, slab slot %d retains %+v", when, i, e)
		}
	}
}

func TestNoPayloadRetentionCalendar(t *testing.T) {
	q := New(0)
	r := rand.New(rand.NewSource(7))
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.Push(Event{Time: int64(r.Intn(1 << 20)), A: 0xdead, B: 0xbeef, C: 0xcafe})
		}
	}

	// Pop path: drain fully; every vacated slot must be zeroed.
	push(500)
	for q.Len() > 0 {
		q.Pop()
	}
	checkNoRetention(t, q, "after drain")

	// Reset path: truncation must zero the retained capacity too.
	push(500)
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("reset left %d events", q.Len())
	}
	checkNoRetention(t, q, "after reset")

	// The queue must stay usable with the same slabs after both.
	push(100)
	var last int64 = -1 << 62
	for q.Len() > 0 {
		e := q.Pop()
		if e.Time < last {
			t.Fatalf("order violated after reuse: %d after %d", e.Time, last)
		}
		last = e.Time
	}
}

// TestResizeCarvesBucketsFromOneSlab pins the rebuilt ring's shape —
// every bucket is a window of the slab whose capacity stops at the
// window's end, so growing one can never write into its neighbour —
// and that a popped or reset slab slot is zeroed like any other.
func TestResizeCarvesBucketsFromOneSlab(t *testing.T) {
	q := New(0)
	// Sparse timestamps: no bucket outgrows its window, so after the
	// resizes every bucket still sits in the slab.
	for i := 0; i < 4*minBuckets; i++ {
		q.Push(Event{Time: int64(i) << 20, A: 0xdead, B: 0xbeef, C: 0xcafe})
	}
	if len(q.buckets) <= minBuckets {
		t.Fatalf("ring did not grow: %d buckets", len(q.buckets))
	}
	for i, b := range q.buckets {
		if cap(b) != slabPerBucket {
			t.Fatalf("bucket %d: cap %d, want the %d-slot window", i, cap(b), slabPerBucket)
		}
	}
	for n := q.Len() / 2; n > 0; n-- {
		q.Pop()
	}
	checkNoRetention(t, q, "slab ring, half drained")
	q.Reset()
	checkNoRetention(t, q, "slab ring, after reset")
}

// TestSizeBytesCountsCapacities: the size is what the queue holds, not
// what is pending — the slab once per ring, an overflowed bucket's own
// allocation on top of it — and Reset gives none of it back.
func TestSizeBytesCountsCapacities(t *testing.T) {
	const evBytes = 40
	q := New(0)
	empty := q.SizeBytes()
	for i := 0; i < 4*minBuckets; i++ {
		q.Push(Event{Time: int64(i) << 20})
	}
	nb := int64(len(q.buckets))
	sparse := q.SizeBytes()
	if min := nb * (slabPerBucket*evBytes + 24); sparse < min || sparse <= empty {
		t.Fatalf("slab ring of %d buckets: %d bytes, want at least %d (empty %d)", nb, sparse, min, empty)
	}
	// Pile one future day past its window: the bucket moves to its own
	// allocation and the size grows by at least that.
	far := int64(3*minBuckets) << 20
	for i := 0; i < 4*slabPerBucket; i++ {
		q.Push(Event{Time: far})
	}
	piled := q.SizeBytes()
	if piled < sparse+4*slabPerBucket*evBytes {
		t.Fatalf("after overflowing a bucket: %d bytes, want at least %d", piled, sparse+4*slabPerBucket*evBytes)
	}
	q.Reset()
	if got := q.SizeBytes(); got != piled {
		t.Fatalf("Reset changed the held size: %d -> %d", piled, got)
	}
}
