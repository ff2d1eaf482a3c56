package eventq

import (
	"math/rand"
	"testing"
)

// pushPopper is what the load shapes drive: the ladder queue, a reference, or
// all three in lock step (trio).
type pushPopper interface {
	Push(Event)
	Pop() Event
	Len() int
}

// A load shape is a closed loop like the simulator's: it seeds the
// queue, then answers each of pops pops with the pushes the popped
// event causes, scheduling forward from the popped time. The three
// shapes are the ones the engine puts on the queue, measured on the
// nine workloads at 128 ranks. Every event's payload names what caused
// it, so a reordered pop shows in the differential test.
type loadShape struct {
	name string
	run  func(q pushPopper, r *rand.Rand, pops int)
}

var loadShapes = []loadShape{
	{"runs", runsShape},
	{"bursts", burstsShape},
	{"clusters", clustersShape},
}

const (
	shapeRanks = 128
	us         = 1000
	ms         = 1000 * us
)

// runsShape: interleaved per-rank runs, a halo exchange — each of 128
// ranks sends 6 messages 1.2 µs apart, the ranks' runs starting spread
// over 260 µs; a rank whose last message arrived starts its next run
// within 260 µs of it.
func runsShape(q pushPopper, r *rand.Rand, pops int) {
	const perRun, gap, spread = 6, 1200, 260 * us
	run := func(rank int32, start int64) {
		for j := int32(0); j < perRun; j++ {
			q.Push(Event{Time: start + int64(j)*gap, Rank: rank, A: j})
		}
	}
	for rank := int32(0); rank < shapeRanks; rank++ {
		run(rank, r.Int63n(spread))
	}
	for i := 0; i < pops; i++ {
		if e := q.Pop(); e.A == perRun-1 {
			run(e.Rank, e.Time+r.Int63n(spread))
		}
	}
}

// burstsShape: identical-timestamp bursts — a collective releases 100+
// events at 4-12 distinct times µs apart, and its last event releases
// the next one a few µs later, two collectives in flight.
func burstsShape(q pushPopper, r *rand.Rand, pops int) {
	burst := func(id int32, now int64) {
		n, times := 100+r.Intn(60), 4+r.Intn(9)
		for j := 0; j < n; j++ {
			last := int32(0)
			if j == n-1 {
				last = 1
			}
			q.Push(Event{Time: now + int64(j%times+1)*us, Rank: int32(j), A: id, C: last})
		}
	}
	burst(0, 0)
	burst(1, 3*us)
	for i, id := 0, int32(2); i < pops; i++ {
		if e := q.Pop(); e.C == 1 {
			burst(id, e.Time+int64(1+r.Intn(5))*us)
			id++
		}
	}
}

// clustersShape: µs-spaced clusters separated by ms gaps, 8 events per
// rank in flight — each popped event causes one more: a message a few
// µs ahead, or, one time in four, the end of a compute phase about
// 5 ms ahead that every rank's phase ends near.
func clustersShape(q pushPopper, r *rand.Rand, pops int) {
	next := func(rank int32, now int64) {
		if r.Intn(4) == 0 {
			q.Push(Event{Time: now + 5*ms + r.Int63n(50*us), Rank: rank, Kind: 1})
			return
		}
		q.Push(Event{Time: now + us + r.Int63n(30*us), Rank: int32(r.Intn(shapeRanks))})
	}
	for i := 0; i < 8*shapeRanks; i++ {
		next(int32(i%shapeRanks), r.Int63n(5*ms))
	}
	for i := 0; i < pops; i++ {
		e := q.Pop()
		next(e.Rank, e.Time)
	}
}

// TestLoadShapesMatchReferences runs each load shape on the ladder
// queue and both references in lock step, then drains them.
func TestLoadShapesMatchReferences(t *testing.T) {
	for _, s := range loadShapes {
		t.Run(s.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				d := newTrio(t, New(0))
				s.run(d, rand.New(rand.NewSource(seed)), 30000)
				for d.Len() > 0 {
					d.Pop()
				}
			}
		})
	}
}

// BenchmarkLoadShapes times each load shape on the ladder queue and on
// the calendar queue it replaced, a pass of 100 000 pops a Reset apart,
// in ns per popped event. Run with a fixed iteration count and read the
// minimum.
func BenchmarkLoadShapes(b *testing.B) {
	const pops = 100000
	for _, s := range loadShapes {
		for _, impl := range []struct {
			name string
			q    interface {
				pushPopper
				Reset()
			}
		}{{"ladder", New(0)}, {"calendar", &calendar{}}} {
			b.Run(s.name+"/"+impl.name, func(b *testing.B) {
				r := rand.New(rand.NewSource(1))
				s.run(impl.q, r, pops) // grow the queue once
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					impl.q.Reset()
					r.Seed(1)
					s.run(impl.q, r, pops)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pops), "ns/event")
			})
		}
	}
}
