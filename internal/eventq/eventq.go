// Package eventq provides the priority queue at the heart of the
// discrete-event simulator.
//
// The queue orders events by timestamp (int64 nanoseconds of simulated
// time), breaking ties by insertion order, so that events scheduled at
// the same instant are delivered in FIFO order. Deterministic
// tie-breaking is essential: the simulator must produce bit-identical
// schedules for a given seed.
//
// The implementation is a ladder queue (Tang, Goh & Thng, ACM TOMACS
// 2005), the remedy for the geometry of Brown's calendar queue
// (CACM'88), whose one bucket width is learned from the whole pending
// population. Events sit in three tiers:
//
//   - the top, an unsorted list of every event at or after topStart;
//   - the ladder, rungs of buckets: when the ladder runs dry the top
//     becomes its first rung, and a bucket holding more than thres
//     events spawns a finer rung instead of being sorted. Each rung's
//     bucket width is the smallest power of two above the span of the
//     events it was built from divided by their count, and its buckets
//     cover exactly that span, so a rung holds about one event per
//     bucket wherever its events cluster and no bucket holds an event of
//     a later lap;
//   - the bottom, a sorted slice that serves pops in O(1): one bucket's
//     events at a time, sorted once on the way in. A burst scheduled
//     inside the bucket being served lands here too; once more than
//     thres such events wait, the bottom spills into a new finest rung.
//
// A push lands in the first tier whose range holds its time: the top,
// else the coarsest rung whose scan cursor it has not passed, else the
// bottom (almost always at its tail, since the simulator schedules
// forward from "now"). An event is relinked when the top becomes a rung
// and when its bucket is too crowded to sort; a spawned rung is at
// least thres/4 times finer than the span it came from, so a pop costs
// a few list steps whatever the spread of pending times. That spread is
// what the LogGOPS workload has: µs-spaced message bursts beside events
// a compute phase (ms) ahead, a mixture no single width fits.
//
// Waiting events live in one pool, as a 32-byte Event and a 16-byte
// link (time and next index) in two parallel slices, so a bucket walk
// reads 16 bytes an event; the top and each bucket is a 4-byte index of
// its first event. A push takes an index off the free list (or grows
// the pool) and sorting a bucket into the bottom frees its indices, so
// the queue holds the memory of its peak population. In every list an
// event comes before the older events of its time, so a list turned
// around and stably sorted by time is in exact (Time, insertion) order:
// no event carries a sequence number. The schedule a simulation observes
// is therefore bit-identical to a binary heap's; the tests keep a 4-ary
// heap and the calendar queue this one replaced as references and
// compare pop sequences against both.
package eventq

import (
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// Event is the unit of work scheduled in simulated time. Payload fields
// are deliberately untyped integers so the queue does not allocate per
// event; the simulator packs whatever it needs into them. The struct is
// kept to 32 bytes, half a cache line — every push, stage and pop
// copies events by value, so its size is the unit cost of all queue
// memory traffic. A and C are 32-bit because the simulator stores
// ranks, message indices and tags there, all of which fit; B stays
// 64-bit for byte counts.
type Event struct {
	Time int64 // simulated time in nanoseconds
	B    int64 // payload (e.g. message size)
	Kind int32 // event discriminator, owned by the caller
	Rank int32 // primary rank the event applies to
	A    int32 // payload (e.g. peer rank, matched message index)
	C    int32 // payload (e.g. tag)
}

// thres is the most events a bucket may hold and still be sorted into
// the bottom; a fuller bucket whose events do not all share one time
// spawns a finer rung.
const thres = 32

// link is what the ladder's list walks read of a pooled waiting event:
// its time and the pool index of the next older event of the same list
// (0 ends it). On the free list next is the complement of the next free
// index. Links sit apart from the events' payloads, so walking a bucket
// stays in a few cache lines.
type link struct {
	time int64
	next int32
}

// rung is one level of the ladder: len(heads) buckets of 2^logW ns from
// start, the last one open-ended, each a list head (0 when empty); heads
// is the window of the queue's heads at off. Buckets before cur have
// been taken: their times, below curStart, belong to finer rungs or the
// bottom.
type rung struct {
	heads    []int32
	off      int
	start    int64
	curStart int64
	logW     uint
	cur      int
	n        int // events waiting in the rung
}

// Queue is a min-queue of events ordered by (Time, insertion order).
// The zero value is an empty, ready-to-use queue.
//
// No event carries a sequence number. In every list — the top and each
// bucket — an event comes before every older event of its time: a push
// links at a head, and a spawn relinks a list from its tail. So a list
// turned around has each time's events in insertion order, and a
// stable sort by time puts it in (Time, insertion) order.
type Queue struct {
	// The pool: links[i] and events[i] are waiting event i, or a free
	// one (Event zero). Index 0 is never used: it means "none".
	links  []link
	events []Event
	free   int32 // newest freed index, 0 when the free list is empty
	n      int   // pending events, all tiers

	// Top: nTop events at or after topStart, unsorted, in a list from
	// top; topLo and topHi are their earliest and latest times.
	top          int32
	nTop         int
	topStart     int64
	topLo, topHi int64

	// Ladder: rungs[:depth] are in use, each finer than the one before
	// and covering a taken bucket of it. Their bucket heads are windows
	// of heads, stacked in rung order: len(heads) is the sum of the
	// windows in use, and everything past it is zero.
	rungs []rung
	depth int
	heads []int32

	// Bottom: the earliest events, sorted by (Time, insertion order).
	// bottom[bi:] are pending; bottom[:bi] have been popped and are
	// zeroed. Every pending event of the other tiers comes after all of
	// them.
	bottom []Event
	bi     int

	// taken is the list the ladder took last — the top, a bucket or
	// the spilled bottom — as pool indices in list order.
	taken []int32
}

// New returns a queue with room preallocated for n waiting events, and
// bucket heads for twice as many: the first rung takes at most one head
// per waiting event, and on every workload measured the finer ones
// together took fewer.
func New(n int) *Queue {
	return &Queue{links: make([]link, 1, n+1), events: make([]Event, 1, n+1), heads: make([]int32, 0, 2*(n+1))}
}

// Len reports the number of pending events.
func (q *Queue) Len() int {
	return q.n
}

// Push schedules an event.
func (q *Queue) Push(e Event) {
	if q.n == 0 {
		// Empty: every tier is, so the top may take any time.
		q.depth, q.heads = 0, q.heads[:0]
		q.topStart = math.MinInt64
	}
	q.n++
	q.place(e)
}

// place puts e into the first tier whose range holds its time.
func (q *Queue) place(e Event) {
	t := e.Time
	if t >= q.topStart {
		if q.nTop == 0 {
			q.topLo, q.topHi = t, t
		} else {
			q.topLo, q.topHi = min(q.topLo, t), max(q.topHi, t)
		}
		q.nTop++
		q.prepend(&e, &q.top)
		return
	}
	for i := 0; i < q.depth; i++ {
		r := &q.rungs[i]
		if t >= r.curStart {
			r.n++
			q.prepend(&e, &r.heads[r.bucket(t)])
			return
		}
	}
	q.insertBottom(e)
}

// bucket returns the index of the bucket of r that time t, not before
// r.start, falls in.
func (r *rung) bucket(t int64) int {
	return int(min(uint64(t-r.start)>>r.logW, uint64(len(r.heads)-1)))
}

// prepend puts e at the head of the list *h, at an index off the free
// list or, when that is empty, one the pool grows by — the only place
// it does.
func (q *Queue) prepend(e *Event, h *int32) {
	i := q.free
	if i != 0 {
		q.free = ^q.links[i].next
	} else {
		if len(q.links) == 0 {
			q.links, q.events = append(q.links, link{}), append(q.events, Event{})
		}
		i = int32(len(q.links))
		q.links, q.events = append(q.links, link{}), append(q.events, Event{})
	}
	q.links[i] = link{e.Time, *h}
	q.events[i] = *e
	*h = i
}

// insertBottom places e, the newest event, into the sorted bottom:
// after every event of its time or earlier. The simulator schedules
// forward from the current time, so the common case is an append. A
// burst scheduled inside the bucket being served lands here too; once
// more than thres events of more than one time are pending, the bottom
// spills into a new finest rung instead of taking sorted inserts.
func (q *Queue) insertBottom(e Event) {
	t := q.bottom
	if len(t) == q.bi || e.Time >= t[len(t)-1].Time {
		q.bottom = append(t, e)
		return
	}
	if len(t)-q.bi > thres && t[q.bi].Time != t[len(t)-1].Time {
		q.spill()
		q.place(e)
		return
	}
	lo, hi := q.bi, len(t)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.Time < t[mid].Time {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	q.bottom = slices.Insert(t, lo, e)
}

// spill moves the bottom's pending events, of more than one time, into
// the pool and from there into a new finest rung, leaving the bottom
// empty.
func (q *Queue) spill() {
	p := q.bottom[q.bi:]
	lo, hi := p[0].Time, p[len(p)-1].Time
	s := q.taken[:0]
	for j := len(p) - 1; j >= 0; j-- { // list order: newest first among equal times
		var h int32
		q.prepend(&p[j], &h)
		s = append(s, h)
	}
	q.taken = s
	clear(q.bottom)
	q.bottom, q.bi = q.bottom[:0], 0
	q.spawn(lo, hi)
}

// Pop removes and returns the earliest event. It panics on an empty
// queue; callers check Len first.
func (q *Queue) Pop() Event {
	if q.n == 0 {
		panic("eventq: Pop on empty queue")
	}
	if q.bi == len(q.bottom) {
		q.refill()
	}
	e := q.bottom[q.bi]
	q.bottom[q.bi] = Event{} // do not retain popped payloads in the bottom
	q.bi++
	q.n--
	if q.bi == len(q.bottom) {
		q.bottom = q.bottom[:0]
		q.bi = 0
	}
	return e
}

// refill moves the earliest bucket of the ladder into the empty bottom,
// turning the top into the first rung when the ladder is empty and
// spawning a finer rung from every crowded bucket on the way.
func (q *Queue) refill() {
	for {
		var head int32
		if q.depth == 0 {
			head = q.top
			q.top, q.nTop = 0, 0
			q.topStart = q.topHi
			if q.topHi < math.MaxInt64 {
				q.topStart++
			}
		} else {
			r := &q.rungs[q.depth-1]
			if r.n == 0 {
				q.depth--
				q.heads = q.heads[:r.off]
				continue
			}
			for r.heads[r.cur] == 0 {
				r.cur++
			}
			head = r.heads[r.cur]
			r.heads[r.cur] = 0
			r.cur++
			if r.cur == len(r.heads) {
				r.curStart = math.MaxInt64
			} else {
				r.curStart = r.start + int64(uint64(r.cur)<<r.logW)
			}
		}
		s := q.taken[:0]
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for i := head; i != 0; i = q.links[i].next {
			s = append(s, i)
			lo, hi = min(lo, q.links[i].time), max(hi, q.links[i].time)
		}
		q.taken = s
		if q.depth > 0 {
			q.rungs[q.depth-1].n -= len(s)
		}
		if lo != hi && (q.depth == 0 || len(s) > thres) {
			q.spawn(lo, hi)
			continue
		}
		q.stage(lo == hi)
		return
	}
}

// spawn makes the taken list, timed lo..hi with lo < hi, a new finest
// rung: buckets of the smallest power of two above (hi-lo)/k for k
// events, from lo, as many as cover hi. It links the list in from its
// tail, so in each bucket an event still comes before the older events
// of its time.
func (q *Queue) spawn(lo, hi int64) {
	s := q.taken
	span := uint64(hi - lo)
	logW := uint(bits.Len64(span / uint64(len(s))))
	nb := int(span>>logW) + 1
	off := len(q.heads)
	if free := cap(q.heads) - off; nb > free && nb <= 2*free && free >= 2 {
		// Buckets twice as wide rather than grown heads, so a reused
		// queue stops growing whatever the next run's spread. Still at
		// least two buckets, since nb > 2.
		logW++
		nb = int(span>>logW) + 1
	}
	if nb > cap(q.heads)-off {
		q.heads = slices.Grow(q.heads, nb)
		for i := range q.rungs[:q.depth] {
			r := &q.rungs[i]
			r.heads = q.heads[r.off : r.off+len(r.heads)]
		}
	}
	// Everything past len(q.heads) is zero: a rung leaves the ladder
	// only when empty.
	q.heads = q.heads[:off+nb]
	if q.depth == len(q.rungs) {
		q.rungs = append(q.rungs, rung{})
	}
	r := &q.rungs[q.depth]
	q.depth++
	r.heads, r.off = q.heads[off:], off
	r.start, r.curStart, r.logW, r.cur, r.n = lo, lo, logW, 0, len(s)
	for j := len(s) - 1; j >= 0; j-- {
		i := s[j]
		l := &q.links[i]
		h := &r.heads[r.bucket(l.time)]
		l.next, *h = *h, i
	}
}

// stage moves the taken list's events into the empty bottom in (Time,
// insertion) order, zeroing and freeing each as it goes; same says they
// share one time. Each event is staged exactly once on its way out of
// the queue.
func (q *Queue) stage(same bool) {
	s := q.taken
	slices.Reverse(s) // each time's events in insertion order
	if !same {
		// A stable insertion sort by time: at most thres events.
		for i := 1; i < len(s); i++ {
			x := s[i]
			t := q.links[x].time
			j := i - 1
			for j >= 0 && t < q.links[s[j]].time {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = x
		}
	}
	b := slices.Grow(q.bottom[:0], len(s))
	for _, i := range s {
		b = append(b, q.events[i])
		q.events[i] = Event{}
		q.links[i].next = ^q.free
		q.free = i
	}
	q.bottom = b
	q.bi = 0
}

// SizeBytes is the memory the queue holds on to — capacities, not
// lengths: the pool's links and events, the rungs and their bucket
// heads, the bottom and the taken list.
func (q *Queue) SizeBytes() int64 {
	return int64(cap(q.links))*int64(unsafe.Sizeof(link{})) +
		int64(cap(q.events)+cap(q.bottom))*int64(unsafe.Sizeof(Event{})) +
		int64(cap(q.heads)+cap(q.taken))*4 +
		int64(cap(q.rungs))*int64(unsafe.Sizeof(rung{}))
}

// Reset discards all pending events but keeps the allocated pool, rungs
// and bottom for the next run. Every event slot in use is zeroed so
// payloads scheduled by one simulation run can never leak into — or
// remain reachable from — a pooled simulator's next run, and the pool
// starts over from its first index, so a run lays its events out the
// same way every time.
func (q *Queue) Reset() {
	clear(q.heads)
	q.depth, q.heads = 0, q.heads[:0]
	clear(q.links)
	clear(q.events)
	q.links, q.events = q.links[:min(1, len(q.links))], q.events[:min(1, len(q.events))]
	q.free = 0
	q.top, q.nTop = 0, 0
	clear(q.bottom)
	q.bottom = q.bottom[:0]
	q.bi = 0
	q.n = 0
}
