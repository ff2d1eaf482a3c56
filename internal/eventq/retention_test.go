package eventq

import (
	"math/rand"
	"testing"
	"unsafe"
)

// slabEvents returns every Event slot the queue keeps allocated beyond
// the live entries: the pool's events that neither the top nor a rung
// in use reaches (free-listed, or never handed out up to the pool's
// capacity) and the bottom outside its pending window. Pooled simulators keep queues alive
// across runs, so stale payloads here would keep dead run state
// reachable for the lifetime of the pool.
func slabEvents(q *Queue) []Event {
	links, events := q.links[:cap(q.links)], q.events[:cap(q.events)]
	live := make([]bool, len(events))
	walk := func(h int32) {
		for i := h; i != 0; i = links[i].next {
			live[i] = true
		}
	}
	walk(q.top)
	for _, r := range q.rungs[:q.depth] {
		for _, h := range r.heads {
			walk(h)
		}
	}
	var out []Event
	for i := range events {
		if !live[i] {
			out = append(out, events[i])
		}
	}
	// Popped bottom prefix and truncated bottom tail.
	out = append(out, q.bottom[:q.bi]...)
	out = append(out, q.bottom[:cap(q.bottom)][len(q.bottom):]...)
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

func TestNoPayloadRetention(t *testing.T) {
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

	// Half drained, rungs spawned: the nodes staging freed are zeroed
	// while their neighbours in the pool are live.
	push(500)
	for q.Len() > 250 {
		q.Pop()
	}
	if q.depth == 0 {
		t.Fatal("half drained with no rung in use: the check reaches no live node")
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
// hold 2 slots per event of the peak population (append's growth step,
// never more than doubling), each a 16-byte link and a 32-byte event,
// and the list the ladder took last — the whole top at most — 2 indices per
// event; the rungs four bytes a bucket, and a rung has at most one
// bucket per event it was built from, so no more than the peak
// population per rung; the bottom two biggest bursts. A second pass on
// the warm queue, a Reset and a third pass move none of it, and no
// freed slot keeps a payload.
func TestQueueMemoryTracksPeakPopulation(t *testing.T) {
	const maxBurst, slotBytes, evBytes = 512, 16 + 32, 32
	rungBytes := int(unsafe.Sizeof(rung{}))
	burst := func(d int) int { return 64 + d*37%(maxBurst-63) }
	q := New(0)
	peak, now := releaseBursts(t, q, 0, burst)
	held := q.SizeBytes()
	bound := int64(2*peak*(slotBytes+4) + len(q.rungs)*(2*4*peak+rungBytes) + 2*maxBurst*evBytes)
	t.Logf("peak %d events, %d rungs, %d bucket heads: holds %d bytes, bound %d", peak, len(q.rungs), cap(q.heads), held, bound)
	if cap(q.heads) < 1024 {
		t.Fatalf("the rungs hold %d bucket heads: the bursts do not spread", cap(q.heads))
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
