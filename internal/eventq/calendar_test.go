package eventq

import (
	"math"
	"slices"
)

// calendar is the second reference the differential tests and the fuzz
// target compare the ladder queue against: the two-level calendar queue
// (after Brown, CACM'88) the simulator ran on before the ladder, kept
// test-only. The time axis is divided into power-of-two-width "days"
// arranged in a ring of buckets, and the day under the scan cursor is
// staged out of its bucket into a sorted agenda that serves pops.
// Events waiting in future days live in one pooled slab of nodes, a
// bucket being the index of its newest node. The ring's geometry is
// re-estimated from the live population whenever the queue grows past
// the ring's capacity and never shrinks. It honors the same (Time, seq)
// contract, so identical push sequences must produce identical pop
// sequences.
type calendar struct {
	// Ring of future days: heads[day&mask] is the pool index of the
	// bucket's newest node, 0 when the bucket is empty.
	heads  []int32
	pool   []calNode // pool[0] is never used: index 0 means "none"
	free   int32     // newest freed node, 0 when the free list is empty
	mask   int64     // len(heads)-1; bucket count is a power of two
	logW   uint      // log2 of the bucket width in nanoseconds
	curDay int64     // absolute day (Time >> logW) staged in the agenda
	n      int       // pending events, agenda included
	seq    uint64    // next insertion sequence number

	// Agenda: curDay's events, sorted by (Time, seq). today[ti:] are
	// pending; today[:ti] have been popped. Invariant: no bucket holds
	// an event of curDay.
	today []seqEvent
	ti    int
}

// calNode is a pooled event waiting in a future day: next is the pool
// index of the next older node of the bucket, or on the free list the
// complement of the next free index.
type calNode struct {
	seqEvent
	next int32
}

// Calendar geometry defaults: the ring starts at calMinBuckets buckets
// of 2^calInitLogWidth ns and re-estimates both when it grows.
const (
	calMinBuckets   = 64
	calInitLogWidth = 12
)

func (q *calendar) init() {
	q.heads = make([]int32, calMinBuckets)
	q.pool = append(q.pool[:0], calNode{})
	q.mask = calMinBuckets - 1
	q.logW = calInitLogWidth
	q.curDay = 0
}

func (q *calendar) Len() int { return q.n }

func (q *calendar) Push(ev Event) {
	if q.heads == nil {
		q.init()
	}
	e := seqEvent{ev, q.seq}
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
		// Behind the scan cursor: spill the agenda back into its
		// bucket and restage at the new day.
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

func (q *calendar) link(e seqEvent) {
	i := q.free
	if i != 0 {
		q.free = ^q.pool[i].next
	} else {
		i = int32(len(q.pool))
		q.pool = append(q.pool, calNode{})
	}
	h := &q.heads[(e.Time>>q.logW)&q.mask]
	nd := &q.pool[i]
	nd.seqEvent, nd.next = e, *h
	*h = i
}

func (q *calendar) insertToday(e seqEvent) {
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
	t = append(t, seqEvent{})
	copy(t[lo+1:], t[lo:])
	t[lo] = e
	q.today = t
}

func (q *calendar) Pop() Event {
	if q.ti == len(q.today) {
		q.stageNext()
	}
	e := q.today[q.ti]
	q.today[q.ti] = seqEvent{}
	q.ti++
	q.n--
	if q.ti == len(q.today) {
		q.today = q.today[:0]
		q.ti = 0
	}
	return e.Event
}

// stageNext advances the cursor to the next day with pending events and
// stages it; within a calendar year ring order is time order, and when
// the whole ring is a year or more ahead it jumps to the global
// minimum's day.
func (q *calendar) stageNext() {
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
func (q *calendar) span() (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for i := range q.pool[1:] {
		if nd := &q.pool[i+1]; nd.next >= 0 {
			lo, hi = min(lo, nd.Time), max(hi, nd.Time)
		}
	}
	return lo, hi
}

// stage moves every event of day from its bucket into the empty agenda,
// zeroing and freeing each node, and sorts the agenda; it reports
// whether the day had any.
func (q *calendar) stage(day int64) bool {
	t := q.today[:0]
	link := &q.heads[day&q.mask]
	for i := *link; i != 0; i = *link {
		nd := &q.pool[i]
		if nd.Time>>q.logW != day {
			link = &nd.next
			continue
		}
		t = append(t, nd.seqEvent)
		*link = nd.next
		nd.seqEvent, nd.next = seqEvent{}, ^q.free
		q.free = i
	}
	if len(t) == 0 {
		return false
	}
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

func (q *calendar) unstage() {
	for _, e := range q.today[q.ti:] {
		q.link(e)
	}
	clear(q.today)
	q.today = q.today[:0]
	q.ti = 0
}

// resize rebuilds the ring for the grown population: the bucket count
// tracks the event count and the width is twice the mean gap between
// pending events, rounded to a power of two.
func (q *calendar) resize() {
	q.unstage()
	nb := calMinBuckets
	for nb < q.n {
		nb *= 2
	}
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

func (q *calendar) Reset() {
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
