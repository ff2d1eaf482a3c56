package eventq

import (
	"math/rand"
	"testing"
)

// trio runs the ladder queue and both references — the 4-ary heap and
// the calendar queue the ladder replaced — side by side, and fails the
// test the moment a pop or a length differs. The simulator's
// bit-identity with the heap- and calendar-era engines rests on this
// equivalence (plus TestEngineGolden at the engine level).
type trio struct {
	tb testing.TB
	q  *Queue
	h  *refHeap
	c  *calendar
}

func newTrio(tb testing.TB, q *Queue) *trio {
	return &trio{tb: tb, q: q, h: &refHeap{}, c: &calendar{}}
}

func (d *trio) Len() int { return d.q.Len() }

func (d *trio) Push(e Event) {
	d.q.Push(e)
	d.h.Push(e)
	d.c.Push(e)
	d.checkLen("push")
}

// Pop pops all three and returns the ladder's event.
func (d *trio) Pop() Event {
	d.tb.Helper()
	ge, he, ce := d.q.Pop(), d.h.Pop(), d.c.Pop()
	if ge != he || ge != ce {
		d.tb.Fatalf("ladder popped %+v, heap %+v, calendar %+v", ge, he, ce)
	}
	d.checkLen("pop")
	return ge
}

func (d *trio) Reset() {
	d.q.Reset()
	d.h.Reset()
	d.c.Reset()
	d.checkLen("reset")
}

func (d *trio) checkLen(op string) {
	d.tb.Helper()
	if n := d.q.Len(); n != d.h.Len() || n != d.c.Len() {
		d.tb.Fatalf("after %s: ladder len %d, heap %d, calendar %d", op, n, d.h.Len(), d.c.Len())
	}
}

// TestQueueMatchesReferences drives the ladder queue and both
// references with identical push/pop sequences — including same-time
// bursts, wide time jumps and mid-stream resets — and requires
// identical pop streams.
func TestQueueMatchesReferences(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		d := newTrio(t, New(0))
		r := rand.New(rand.NewSource(seed))
		now := int64(0)
		for i := 0; i < 20000; i++ {
			switch {
			case d.Len() == 0 || r.Intn(3) > 0:
				dt := int64(r.Intn(1000))
				if r.Intn(50) == 0 {
					dt = int64(r.Intn(1 << 30)) // sparse far-future jump
				}
				if r.Intn(10) == 0 {
					dt = 0 // same-time burst: exercises FIFO tie-break
				}
				d.Push(Event{Time: now + dt, Kind: int32(i), Rank: int32(r.Intn(64)), A: int32(i), B: now, C: int32(dt)})
			case r.Intn(200) == 0:
				d.Reset()
				now = 0
			default:
				now = d.Pop().Time
			}
		}
		for d.Len() > 0 {
			d.Pop()
		}
	}
}

// TestZeroValueQueue: the documented contract says the zero value is an
// empty, ready-to-use queue.
func TestZeroValueQueue(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 2})
	q.Push(Event{Time: 1})
	if got := q.Pop().Time; got != 1 {
		t.Fatalf("zero-value queue popped %d, want 1", got)
	}
	if got := q.Pop().Time; got != 2 {
		t.Fatalf("zero-value queue popped %d, want 2", got)
	}
	var r Queue
	r.Reset()
	r.Push(Event{Time: 3})
	if got := r.Pop().Time; got != 3 {
		t.Fatalf("zero-value queue popped %d after Reset, want 3", got)
	}
}

// TestSparseFallback: lone events many bucket widths past everything
// else — a far-future top over a short ladder — must still pop in
// order.
func TestSparseFallback(t *testing.T) {
	q := New(0)
	q.Push(Event{Time: 5})
	if q.Pop().Time != 5 {
		t.Fatal("warmup pop")
	}
	q.Push(Event{Time: 1 << 50})
	q.Push(Event{Time: 1<<50 + 1})
	q.Push(Event{Time: 7})
	for _, want := range []int64{7, 1 << 50, 1<<50 + 1} {
		if got := q.Pop().Time; got != want {
			t.Fatalf("sparse pop = %d, want %d", got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("%d events left", q.Len())
	}
}

// TestBottomSpillsIntoRung: a burst scheduled inside the bucket being
// served goes to the bottom, and once more than thres events of several
// times wait there, the bottom spills into a finer rung instead of
// taking sorted inserts. Pushed latest first, every push after the
// first would be an insert at the bottom's front.
func TestBottomSpillsIntoRung(t *testing.T) {
	d := newTrio(t, New(0))
	d.Push(Event{Time: 0})
	d.Push(Event{Time: 1 << 30})
	d.Pop() // the rung's first bucket; the second starts at 1<<29
	for i := int32(0); i < 4*thres; i++ {
		d.Push(Event{Time: int64(1000 - i%100), A: i}) // repeated times too
	}
	if n := len(d.q.bottom) - d.q.bi; n > thres+1 {
		t.Fatalf("%d events wait in the bottom, want at most %d", n, thres+1)
	}
	if d.q.depth < 2 {
		t.Fatalf("ladder %d rungs deep after the spill, want 2", d.q.depth)
	}
	for d.Len() > 0 {
		d.Pop()
	}
}
