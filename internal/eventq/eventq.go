// Package eventq provides the priority queue at the heart of the
// discrete-event simulator.
//
// The queue orders events by timestamp (int64 nanoseconds of simulated
// time) with a monotonically increasing sequence number as a tie-breaker,
// so that events scheduled at the same instant are delivered in FIFO
// order. Deterministic tie-breaking is essential: the simulator must
// produce bit-identical schedules for a given seed.
//
// The implementation is a two-level calendar queue (after Brown,
// CACM'88): the time axis is divided into power-of-two-width "days"
// arranged in a ring of buckets, and the day under the scan cursor is
// staged out of its bucket into a sorted agenda that serves pops in
// O(1). Events waiting in future days live in one pooled slab of nodes
// and a bucket is a 4-byte index of its newest node, each node naming
// the next: a push for a future day takes a node off the free list (or
// grows the slab) and links it at its bucket's head, staging a day
// frees its nodes, so the queue holds the memory of its peak
// population however the bursts of a run move from bucket to bucket.
// Pushes for the current day insert into the agenda (almost always at
// its tail, since the simulator schedules forward from "now"). This
// shape fits the LogGOPS workload, where collective phases release
// bursts of events at identical timestamps: a plain calendar queue
// rescans the whole burst on every pop, while the agenda sorts each
// burst once. Ring geometry (bucket count and width) is re-estimated
// from the live population whenever the queue grows past the ring's
// capacity; it never shrinks mid-run, because barrier-induced drains
// would otherwise thrash resizes, and a sparse ring only costs the
// sweep an occasional skipped-ahead cursor jump. Because the pop order
// is the strict total order (Time, seq), the schedule a simulation
// observes is bit-identical to a binary heap's; the tests keep a 4-ary
// heap as the reference and compare pop sequences against it.
package eventq

import (
	"math"
	"slices"
	"unsafe"
)

// Event is the unit of work scheduled in simulated time. Payload fields
// are deliberately untyped integers so the queue does not allocate per
// event; the simulator packs whatever it needs into them. The struct is
// kept to 40 bytes — every push, pop and stage copies events by value,
// so its size is the unit cost of all queue memory traffic. A and
// C are 32-bit because the simulator stores ranks, message indices and
// tags there, all of which fit; B stays 64-bit for byte counts.
type Event struct {
	Time int64 // simulated time in nanoseconds
	B    int64 // payload (e.g. message size)
	seq  uint64
	Kind int32 // event discriminator, owned by the caller
	Rank int32 // primary rank the event applies to
	A    int32 // payload (e.g. peer rank, matched message index)
	C    int32 // payload (e.g. tag)
}

// Calendar geometry defaults. The ring starts at minBuckets buckets of
// 2^initLogWidth ns and re-estimates both from the live population when
// it grows.
const (
	minBuckets   = 64
	initLogWidth = 12 // 4.096 us — re-estimated on first resize
)

// node is a pooled event waiting in a future day. next is the pool
// index of the next older node of the same bucket (0 ends the list);
// on the free list it is the complement of the next free index, so a
// scan of the pool tells a free node (next < 0, Event zero) from a
// live one.
type node struct {
	Event
	next int32
}

// Queue is a min-queue of events ordered by (Time, insertion order).
// The zero value is an empty, ready-to-use queue.
type Queue struct {
	// Ring of future days: heads[day&mask] is the pool index of the
	// bucket's newest node, 0 when the bucket is empty.
	heads  []int32
	pool   []node // pool[0] is never used: index 0 means "none"
	free   int32  // newest freed node, 0 when the free list is empty
	mask   int64  // len(heads)-1; bucket count is a power of two
	logW   uint   // log2 of the bucket width in nanoseconds
	curDay int64  // absolute day (Time >> logW) staged in the agenda
	n      int    // pending events, agenda included
	seq    uint64 // next insertion sequence number

	// Agenda: curDay's events, sorted by (Time, seq). today[ti:] are
	// pending; today[:ti] have been popped and are zeroed. Invariant:
	// no bucket holds an event of curDay.
	today []Event
	ti    int
}

// New returns a queue with nodes preallocated for n waiting events.
func New(n int) *Queue {
	q := &Queue{pool: make([]node, 1, n+1)}
	q.init()
	return q
}

// init builds the initial calendar ring. Called lazily so the zero
// value stays valid.
func (q *Queue) init() {
	q.heads = make([]int32, minBuckets)
	q.pool = append(q.pool[:0], node{})
	q.mask = minBuckets - 1
	q.logW = initLogWidth
	q.curDay = 0
}

// Len reports the number of pending events.
func (q *Queue) Len() int {
	return q.n
}

// Push schedules an event. The event's seq field is assigned internally.
func (q *Queue) Push(e Event) {
	if q.heads == nil {
		q.init()
	}
	e.seq = q.seq
	q.seq++
	day := e.Time >> q.logW
	switch {
	case q.n == 0:
		q.curDay = day
		q.today = append(q.today[:0], e)
		q.ti = 0
	case day == q.curDay:
		q.insertToday(e)
	case day < q.curDay:
		// An event scheduled behind the scan cursor. The simulator
		// never time-travels, but the contract allows it: spill the
		// agenda back into its bucket and restage at the new day.
		q.unstage()
		q.link(e)
		q.stage(day)
	default:
		q.link(e)
	}
	q.n++
	if q.n > 2*len(q.heads) {
		q.resize()
	}
}

// link puts e at the head of its day's bucket, in a node off the free
// list or, when that is empty, one the pool grows by — the only place
// it does.
func (q *Queue) link(e Event) {
	i := q.free
	if i != 0 {
		q.free = ^q.pool[i].next
	} else {
		i = int32(len(q.pool))
		q.pool = append(q.pool, node{})
	}
	h := &q.heads[(e.Time>>q.logW)&q.mask]
	nd := &q.pool[i]
	nd.Event, nd.next = e, *h // field by field: a node literal is built on the stack and copied
	*h = i
}

// insertToday places e into the sorted agenda. The simulator schedules
// forward from the current time, so the common case is an append.
func (q *Queue) insertToday(e Event) {
	t := q.today
	if len(t) == q.ti || !less(&e, &t[len(t)-1]) {
		q.today = append(t, e)
		return
	}
	lo, hi := q.ti, len(t)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(&e, &t[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	t = append(t, Event{})
	copy(t[lo+1:], t[lo:])
	t[lo] = e
	q.today = t
}

// Pop removes and returns the earliest event. It panics on an empty
// queue; callers check Len first.
func (q *Queue) Pop() Event {
	if q.n == 0 {
		panic("eventq: Pop on empty queue")
	}
	if q.ti == len(q.today) {
		q.stageNext()
	}
	e := q.today[q.ti]
	q.today[q.ti] = Event{} // do not retain popped payloads in the agenda
	q.ti++
	q.n--
	if q.ti == len(q.today) {
		q.today = q.today[:0]
		q.ti = 0
	}
	e.seq = 0
	return e
}

// Peek returns the earliest event without removing it. Like Pop it
// panics on an empty queue.
func (q *Queue) Peek() Event {
	if q.n == 0 {
		panic("eventq: Peek on empty queue")
	}
	if q.ti == len(q.today) {
		q.stageNext()
	}
	e := q.today[q.ti]
	e.seq = 0
	return e
}

// stageNext advances the cursor to the next day with pending events and
// stages it. Within a calendar year, ring order is time order, so the
// first day with a resident is the minimum; if the whole ring is at
// least a year ahead of the cursor, jump straight to the global
// minimum's day. The sweep reads only the heads, sixteen to a cache
// line, and a non-empty bucket is staged in the same walk that tests it
// for a resident of the day.
func (q *Queue) stageNext() {
	day := q.curDay + 1
	for step := 0; step < len(q.heads); step, day = step+1, day+1 {
		if q.heads[day&q.mask] != 0 && q.stage(day) {
			return
		}
	}
	lo, _ := q.span()
	q.stage(lo >> q.logW)
}

// span returns the earliest and latest time waiting in the ring.
func (q *Queue) span() (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for i := range q.pool[1:] {
		if nd := &q.pool[i+1]; nd.next >= 0 {
			lo, hi = min(lo, nd.Time), max(hi, nd.Time)
		}
	}
	return lo, hi
}

// stage moves every event belonging to day from its ring bucket into
// the agenda, zeroing and freeing each node as it goes, and sorts the
// agenda by (Time, seq); it reports whether the day had any. Each event
// is staged exactly once on its way out of the queue. The agenda must
// be empty.
func (q *Queue) stage(day int64) bool {
	t := q.today[:0]
	link := &q.heads[day&q.mask]
	for i := *link; i != 0; i = *link {
		nd := &q.pool[i]
		if nd.Time>>q.logW != day {
			link = &nd.next
			continue
		}
		t = append(t, nd.Event)
		*link = nd.next
		nd.Event, nd.next = Event{}, ^q.free
		q.free = i
	}
	if len(t) == 0 {
		return false
	}
	// The bucket runs newest first; turned around it is push order,
	// which the simulator emits in near-ascending time, so the insertion
	// sort is close to linear.
	slices.Reverse(t)
	for i := 1; i < len(t); i++ {
		e := t[i]
		j := i - 1
		for j >= 0 && less(&e, &t[j]) {
			t[j+1] = t[j]
			j--
		}
		t[j+1] = e
	}
	q.today = t
	q.ti = 0
	q.curDay = day
	return true
}

// unstage spills the live agenda back into curDay's ring bucket and
// zeroes the agenda.
func (q *Queue) unstage() {
	for _, e := range q.today[q.ti:] {
		q.link(e)
	}
	clear(q.today)
	q.today = q.today[:0]
	q.ti = 0
}

// less orders events by (Time, seq): FIFO among same-time events.
func less(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

// resize rebuilds the ring for the grown population: the bucket count
// tracks the event count and the bucket width is re-estimated from the
// pending timestamp span, so a calendar year covers the live window
// with O(1) expected occupancy per bucket. Only the heads are new: the
// nodes are rethreaded where they lie, in pool order, which is close to
// push order. The ring never shrinks — collective barriers drain the
// queue many times per run, and re-growing after each would dominate
// the queue's cost.
func (q *Queue) resize() {
	q.unstage()
	nb := minBuckets
	for nb < q.n {
		nb *= 2
	}
	// Width ~ twice the mean gap between pending events, as a power of
	// two so bucket mapping is a shift (correct for negative times,
	// immune to the div cost). The year nb<<logW then spans ~2x the
	// live window.
	lo, hi := q.span()
	gap := (hi - lo) / int64(q.n)
	logW := uint(0)
	for int64(1)<<logW < gap+1 {
		logW++
	}
	q.heads = make([]int32, nb)
	q.mask = int64(nb) - 1
	q.logW = logW
	for i := range q.pool[1:] {
		if nd := &q.pool[i+1]; nd.next >= 0 {
			h := &q.heads[(nd.Time>>logW)&q.mask]
			nd.next, *h = *h, int32(i+1)
		}
	}
	q.stage(lo >> logW)
}

// SizeBytes is the memory the queue holds on to — capacities, not
// lengths: the node pool, the ring's heads and the agenda.
func (q *Queue) SizeBytes() int64 {
	return int64(cap(q.pool))*int64(unsafe.Sizeof(node{})) + int64(cap(q.heads))*4 +
		int64(cap(q.today))*int64(unsafe.Sizeof(Event{}))
}

// Reset discards all pending events but keeps the allocated pool, ring
// and agenda, and the learned ring geometry, for the next run. Every
// node and agenda slot in use is zeroed so payloads scheduled by one
// simulation run can never leak into — or remain reachable from — a
// pooled simulator's next run, and the pool starts over from its first
// node, so a run lays its events out the same way every time.
func (q *Queue) Reset() {
	clear(q.heads)
	clear(q.pool)
	q.pool = q.pool[:min(1, len(q.pool))]
	q.free = 0
	clear(q.today)
	q.today = q.today[:0]
	q.ti = 0
	q.n = 0
	q.seq = 0
	q.curDay = 0
}
