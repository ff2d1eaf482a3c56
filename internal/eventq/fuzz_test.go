package eventq

import "testing"

// FuzzQueueMatchesHeap decodes the input into a push / pop / peek /
// reset program and runs it on the calendar queue and the reference
// heap side by side. Each operation is one opcode byte followed by its
// operands (missing operand bytes read as zero):
//
//	0-2  push one event at now + uint16        (forward scheduling)
//	3    push 1+byte events at now + uint16    (same-timestamp burst;
//	     a few of them grow the queue past a resize)
//	4    push one event at now - uint16<<byte%24 (behind the scan
//	     cursor, reaching negative times)
//	5    push one event at now + 1<<byte%40    (sparse far-future jump)
//	6    pop, 7 peek                           (no-ops when empty; a
//	     peek is followed by the no-payload-retention check, mid-run:
//	     nodes freed by staging are zeroed while others are live)
//	8    reset, then the no-payload-retention check
//
// where now is the time of the last popped event. Pop and peek results
// and Len must agree after every step, and the final drain must too.
func FuzzQueueMatchesHeap(f *testing.F) { f.Fuzz(runQueueProgram) }

func runQueueProgram(t *testing.T, prog []byte) {
	q, h := New(0), &refHeap{}
	var now int64
	var pushed int32
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	next16 := func() int64 { return int64(next()) | int64(next())<<8 } // little-endian
	push := func(at int64) {
		pushed++
		e := Event{Time: at, B: at, Kind: pushed, Rank: pushed % 64, A: pushed, C: -pushed}
		q.Push(e)
		h.Push(e)
	}
	pop := func(step string) {
		ge, we := q.Pop(), h.Pop()
		if ge != we {
			t.Fatalf("%s: calendar popped %+v, heap popped %+v", step, ge, we)
		}
		now = ge.Time
	}
	for step := 0; len(prog) > 0; step++ {
		switch next() % 9 {
		case 0, 1, 2:
			push(now + next16())
		case 3:
			n, at := int(next())+1, now+next16()
			for i := 0; i < n; i++ {
				push(at)
			}
		case 4:
			back := next16()
			push(now - back<<(next()%24))
		case 5:
			push(now + 1<<(next()%40))
		case 6:
			if q.Len() > 0 {
				pop("pop")
			}
		case 7:
			if q.Len() > 0 {
				if ge, we := q.Peek(), h.Peek(); ge != we {
					t.Fatalf("step %d: calendar peeked %+v, heap peeked %+v", step, ge, we)
				}
				checkNoRetention(t, q, "after peek")
			}
		case 8:
			q.Reset()
			h.Reset()
			now = 0
			checkNoRetention(t, q, "after reset")
		}
		if q.Len() != h.Len() {
			t.Fatalf("step %d: len %d vs %d", step, q.Len(), h.Len())
		}
	}
	for q.Len() > 0 {
		pop("drain")
	}
	if h.Len() != 0 {
		t.Fatalf("calendar drained with %d events left in the heap", h.Len())
	}
	checkNoRetention(t, q, "after drain")
}
