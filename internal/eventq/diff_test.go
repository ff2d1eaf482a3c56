package eventq

import (
	"math/rand"
	"testing"
)

// TestCalendarMatchesHeap drives the calendar queue and the reference
// heap with identical push/pop sequences — including same-time bursts,
// wide time jumps and mid-stream resets — and requires identical pop
// streams. The simulator's bit-identity with the heap-era engine rests
// on this equivalence (plus TestEngineGolden at the engine level).
func TestCalendarMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		q, s := New(0), &refHeap{}
		r := rand.New(rand.NewSource(seed))
		now := int64(0)
		for i := 0; i < 20000; i++ {
			switch {
			case q.Len() == 0 || r.Intn(3) > 0:
				dt := int64(r.Intn(1000))
				if r.Intn(50) == 0 {
					dt = int64(r.Intn(1 << 30)) // sparse far-future jump
				}
				if r.Intn(10) == 0 {
					dt = 0 // same-time burst: exercises FIFO tie-break
				}
				e := Event{Time: now + dt, Kind: int32(i), Rank: int32(r.Intn(64)), A: int32(i), B: now, C: int32(dt)}
				q.Push(e)
				s.Push(e)
			case r.Intn(200) == 0:
				q.Reset()
				s.Reset()
				now = 0
			default:
				ge, we := q.Pop(), s.Pop()
				if ge != we {
					t.Fatalf("seed %d step %d: calendar popped %+v, heap popped %+v", seed, i, ge, we)
				}
				now = ge.Time
			}
			if q.Len() != s.Len() {
				t.Fatalf("seed %d step %d: len %d vs %d", seed, i, q.Len(), s.Len())
			}
		}
		for q.Len() > 0 {
			ge, we := q.Pop(), s.Pop()
			if ge != we {
				t.Fatalf("seed %d drain: calendar popped %+v, heap popped %+v", seed, ge, we)
			}
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
}

// TestSparseFallback exercises the global-min jump: a lone event many
// calendar years ahead of the cursor must still pop correctly.
func TestSparseFallback(t *testing.T) {
	q := New(0)
	q.Push(Event{Time: 5})
	if q.Pop().Time != 5 {
		t.Fatal("warmup pop")
	}
	q.Push(Event{Time: 1 << 50})
	q.Push(Event{Time: 1<<50 + 1})
	if got := q.Pop().Time; got != 1<<50 {
		t.Fatalf("sparse pop = %d", got)
	}
	if got := q.Peek().Time; got != 1<<50+1 {
		t.Fatalf("sparse peek = %d", got)
	}
	if got := q.Pop().Time; got != 1<<50+1 {
		t.Fatalf("sparse pop 2 = %d", got)
	}
}
