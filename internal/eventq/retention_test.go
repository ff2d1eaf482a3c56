package eventq

import (
	"math/rand"
	"testing"
)

// slabEvents returns every Event slot the queue keeps allocated beyond
// the live entries: the pool nodes no bucket reaches (free-listed, or
// never handed out up to the pool's capacity) and the agenda outside
// its pending window. Pooled simulators keep queues alive across runs,
// so stale payloads here would keep dead run state reachable for the
// lifetime of the pool.
func slabEvents(q *Queue) []Event {
	pool := q.pool[:cap(q.pool)]
	live := make([]bool, len(pool))
	for _, h := range q.heads {
		for i := h; i != 0; i = pool[i].next {
			live[i] = true
		}
	}
	var out []Event
	for i := range pool {
		if !live[i] {
			out = append(out, pool[i].Event)
		}
	}
	// Popped agenda prefix and truncated agenda tail.
	out = append(out, q.today[:q.ti]...)
	out = append(out, q.today[:cap(q.today)][len(q.today):]...)
	return out
}

// checkNoRetention requires every retained slot to be zeroed.
func checkNoRetention(t *testing.T, q *Queue, when string) {
	t.Helper()
	for i, e := range slabEvents(q) {
		if e != (Event{}) {
			t.Fatalf("%s, retained slot %d holds %+v", when, i, e)
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

	// Half drained, past two resizes: the nodes staging freed are zeroed
	// while their neighbours in the pool are live.
	push(500)
	for q.Len() > 250 {
		q.Pop()
	}
	checkNoRetention(t, q, "half drained")

	// Reset path: truncation must zero the retained capacity too.
	push(250)
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("reset left %d events", q.Len())
	}
	checkNoRetention(t, q, "after reset")

	// The queue must stay usable with the same pool after both.
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

// TestQueueMemoryTracksPeakPopulation: what the queue holds follows
// the most events it ever held at once, not where they sat. Each of the
// 4096 bursts of releaseBursts (64-512 events here) lands in a bucket of
// its own, which per-bucket storage pays for with a biggest-burst slab
// in every bucket (63 MB here, 78 after a second pass). The pool may
// hold a = 2 nodes per event of the peak population (append's growth
// step, never more than doubling), the ring four bytes a bucket, the
// agenda two biggest bursts; a second pass on the warm queue, a Reset
// and a third pass move none of it, and no freed node keeps a payload.
func TestQueueMemoryTracksPeakPopulation(t *testing.T) {
	const maxBurst, nodeBytes, evBytes = 512, 48, 40
	burst := func(d int) int { return 64 + d*37%(maxBurst-63) }
	q := New(0)
	peak, now := releaseBursts(t, q, 0, burst)
	held := q.SizeBytes()
	bound := int64(2*peak*nodeBytes + 4*len(q.heads) + 2*maxBurst*evBytes)
	t.Logf("peak %d events, %d buckets: holds %d bytes, bound %d", peak, len(q.heads), held, bound)
	if len(q.heads) < 1024 {
		t.Fatalf("ring has %d buckets: the bursts do not spread", len(q.heads))
	}
	if held > bound {
		t.Errorf("queue holds %d bytes for a peak of %d events, bound %d", held, peak, bound)
	}
	checkNoRetention(t, q, "after the first pass")
	_, now = releaseBursts(t, q, now, burst)
	if got := q.SizeBytes(); got != held {
		t.Errorf("second pass changed the held size: %d -> %d", held, got)
	}
	q.Push(Event{Time: now, A: 0xdead})
	q.Push(Event{Time: now + 1<<40, B: 0xbeef})
	q.Reset()
	checkNoRetention(t, q, "after reset")
	if got := q.SizeBytes(); got != held {
		t.Errorf("Reset changed the held size: %d -> %d", held, got)
	}
	releaseBursts(t, q, 0, burst)
	if got := q.SizeBytes(); got != held {
		t.Errorf("a pass after Reset changed the held size: %d -> %d", held, got)
	}
}
