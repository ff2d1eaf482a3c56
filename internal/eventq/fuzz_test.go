package eventq

import "testing"

// FuzzQueueMatchesHeap decodes the input into a push / pop / reset
// program and runs it on the ladder queue and on both references — the
// 4-ary heap and the calendar queue — side by side. Each operation is
// one opcode byte followed by its operands (missing operand bytes read
// as zero):
//
//	0-2  push one event at now + uint16        (forward scheduling)
//	3    push 1+byte events at now + uint16    (same-timestamp burst;
//	     more than thres of them make a bucket that cannot be split)
//	4    push one event at now - uint16<<byte%24 (behind the ladder's
//	     cursors, into the bottom, reaching negative times)
//	5    push one event at now + 1<<byte%40    (sparse far-future jump,
//	     usually into the top)
//	6    pop                                   (a no-op when empty)
//	7    no queue operation: the no-payload-retention check, mid-run
//	     (nodes freed by staging are zeroed while others are live).
//	     It was a peek until the queue lost Peek, so committed inputs
//	     keep the programs they always decoded to
//	8    reset, then the no-payload-retention check
//
// where now is the time of the last popped event. Pops and Len must
// agree after every step, and the final drain must too.
func FuzzQueueMatchesHeap(f *testing.F) { f.Fuzz(runQueueProgram) }

func runQueueProgram(t *testing.T, prog []byte) {
	d := newTrio(t, New(0))
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
		d.Push(Event{Time: at, B: at, Kind: pushed, Rank: pushed % 64, A: pushed, C: -pushed})
	}
	for len(prog) > 0 {
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
			if d.Len() > 0 {
				now = d.Pop().Time
			}
		case 7:
			checkNoRetention(t, d.q, "mid-run")
		case 8:
			d.Reset()
			now = 0
			checkNoRetention(t, d.q, "after reset")
		}
	}
	for d.Len() > 0 {
		d.Pop()
	}
	checkNoRetention(t, d.q, "after drain")
}
