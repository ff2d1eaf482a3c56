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
// O(1). Pushes for future days append to their ring bucket unsorted;
// pushes for the current day insert into the agenda (almost always at
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

import "unsafe"

// Event is the unit of work scheduled in simulated time. Payload fields
// are deliberately untyped integers so the queue does not allocate per
// event; the simulator packs whatever it needs into them. The struct is
// kept to 40 bytes — every push, pop, stage and resize copies events by
// value, so its size is the unit cost of all queue memory traffic. A and
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
	// slabPerBucket is the bucket capacity resize carves out of the
	// ring's slab. A resize leaves under one event per bucket on average
	// and the next fires at two, but collective phases pile same-time
	// events into one day, so the common bucket peaks higher: at 2, 4, 8
	// and 16 slots a bench figure_cells op allocates 12.8k, 10.9k, 9.3k
	// and 8.4k times and 9255, 9153, 9034 and 9244 KiB (docs/MODEL.md
	// §9) — 8 is where the bytes bottom out.
	slabPerBucket = 8
)

// Queue is a min-queue of events ordered by (Time, insertion order).
// The zero value is an empty, ready-to-use queue.
type Queue struct {
	// Ring of future days.
	buckets [][]Event
	mask    int64  // len(buckets)-1; bucket count is a power of two
	logW    uint   // log2 of the bucket width in nanoseconds
	curDay  int64  // absolute day (Time >> logW) staged in the agenda
	n       int    // pending events, agenda included
	seq     uint64 // next insertion sequence number

	// Agenda: curDay's events, sorted by (Time, seq). today[ti:] are
	// pending; today[:ti] have been popped and are zeroed. Invariant:
	// no bucket holds an event of curDay.
	today []Event
	ti    int

	scratch []Event // resize spill buffer, zeroed after use
	slab    int     // slots in the slab the last resize carved the ring from
}

// New returns a queue with capacity preallocated for n events.
func New(n int) *Queue {
	q := &Queue{}
	q.init()
	// Pre-size the ring for the hinted population so steady-state
	// pushes do not grow bucket slabs one append at a time.
	if per := n / len(q.buckets); per > 0 {
		for i := range q.buckets {
			q.buckets[i] = make([]Event, 0, per)
		}
	}
	return q
}

// init builds the initial calendar ring. Called lazily so the zero
// value stays valid.
func (q *Queue) init() {
	q.buckets = make([][]Event, minBuckets)
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
	if q.buckets == nil {
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
		idx := day & q.mask
		q.buckets[idx] = append(q.buckets[idx], e)
		q.stage(day)
	default:
		idx := day & q.mask
		q.buckets[idx] = append(q.buckets[idx], e)
	}
	q.n++
	if q.n > 2*len(q.buckets) {
		q.resize()
	}
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
	q.today[q.ti] = Event{} // do not retain popped payloads in the slab
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
// minimum's day. The sweep consults only the bucket lengths — an empty
// bucket is skipped without touching its slab — and scans residents
// only for non-empty candidates.
func (q *Queue) stageNext() {
	nb := len(q.buckets)
	day := q.curDay + 1
	for step := 0; step < nb; step, day = step+1, day+1 {
		b := q.buckets[day&q.mask]
		if len(b) == 0 {
			continue
		}
		for j := range b {
			if b[j].Time>>q.logW == day {
				q.stage(day)
				return
			}
		}
	}
	minDay := int64(0)
	found := false
	for i := range q.buckets {
		b := q.buckets[i]
		for j := range b {
			if d := b[j].Time >> q.logW; !found || d < minDay {
				minDay, found = d, true
			}
		}
	}
	q.stage(minDay)
}

// stage moves every event belonging to day from its ring bucket into
// the agenda and sorts the agenda by (Time, seq). Each event is staged
// exactly once on its way out of the queue.
func (q *Queue) stage(day int64) {
	idx := day & q.mask
	b := q.buckets[idx]
	t := q.today[:0]
	w := 0
	for j := range b {
		if b[j].Time>>q.logW == day {
			t = append(t, b[j])
		} else {
			b[w] = b[j]
			w++
		}
	}
	for j := w; j < len(b); j++ {
		b[j] = Event{}
	}
	q.buckets[idx] = b[:w]
	// Insertion sort: bucket order is push order, which the simulator
	// emits in near-ascending time, so this is close to linear.
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
}

// unstage spills the live agenda back into curDay's ring bucket and
// zeroes the agenda slab.
func (q *Queue) unstage() {
	idx := q.curDay & q.mask
	q.buckets[idx] = append(q.buckets[idx], q.today[q.ti:]...)
	for i := range q.today {
		q.today[i] = Event{}
	}
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
// with O(1) expected occupancy per bucket. The ring never shrinks —
// collective barriers drain the queue many times per run, and
// re-growing after each would dominate the queue's cost.
func (q *Queue) resize() {
	events := q.scratch[:0]
	events = append(events, q.today[q.ti:]...)
	for i := range q.buckets {
		events = append(events, q.buckets[i]...)
	}
	for i := range q.today {
		q.today[i] = Event{}
	}
	q.today = q.today[:0]
	q.ti = 0
	nb := minBuckets
	for nb < q.n {
		nb *= 2
	}
	lo, hi := events[0].Time, events[0].Time
	for i := range events[1:] {
		t := events[i+1].Time
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	// Width ~ twice the mean gap between pending events, as a power of
	// two so bucket mapping is a shift (correct for negative times,
	// immune to the div cost). The year nb<<logW then spans ~2x the
	// live window.
	gap := (hi - lo) / int64(q.n)
	logW := uint(0)
	for int64(1)<<logW < gap+1 {
		logW++
	}
	// One slab backs the whole ring: each bucket starts as a
	// slabPerBucket-slot window of it (capacity-limited, so an append
	// can never run into its neighbour), and only a bucket that outgrows
	// its window moves to an allocation of its own, leaving the window
	// unused for the ring's lifetime.
	slab := make([]Event, nb*slabPerBucket)
	q.slab = len(slab)
	q.buckets = make([][]Event, nb)
	for i := range q.buckets {
		lo := i * slabPerBucket
		q.buckets[i] = slab[lo : lo : lo+slabPerBucket]
	}
	q.mask = int64(nb) - 1
	q.logW = logW
	for _, e := range events {
		idx := (e.Time >> logW) & q.mask
		q.buckets[idx] = append(q.buckets[idx], e)
	}
	for i := range events {
		events[i] = Event{}
	}
	q.scratch = events[:0]
	q.stage(lo >> logW)
}

// SizeBytes is the memory the queue holds on to — capacities, not
// lengths: the ring's bucket headers and slab, every bucket that
// outgrew its window of the slab (the window stays allocated), the
// agenda and the resize spill buffer.
func (q *Queue) SizeBytes() int64 {
	slots := q.slab + cap(q.today) + cap(q.scratch)
	for _, b := range q.buckets {
		if q.slab == 0 || cap(b) > slabPerBucket {
			slots += cap(b)
		}
	}
	return int64(slots)*int64(unsafe.Sizeof(Event{})) + int64(len(q.buckets))*int64(unsafe.Sizeof([]Event(nil)))
}

// Reset discards all pending events but keeps the allocated ring and
// agenda slabs, and the learned ring geometry, for the next run.
// Discarded slots are zeroed so payloads scheduled by one simulation
// run can never leak into — or remain reachable from — a pooled
// simulator's next run.
func (q *Queue) Reset() {
	for i := range q.buckets {
		b := q.buckets[i]
		for j := range b {
			b[j] = Event{}
		}
		q.buckets[i] = b[:0]
	}
	for i := range q.today {
		q.today[i] = Event{}
	}
	q.today = q.today[:0]
	q.ti = 0
	q.n = 0
	q.seq = 0
	q.curDay = 0
}
