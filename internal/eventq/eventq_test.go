package eventq

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	q := New(0)
	times := []int64{5, 3, 9, 1, 7, 3, 0}
	for _, tm := range times {
		q.Push(Event{Time: tm})
	}
	sorted := append([]int64(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, want := range sorted {
		got := q.Pop()
		if got.Time != want {
			t.Fatalf("pop %d: time %d, want %d", i, got.Time, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after draining: %d", q.Len())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	q := New(0)
	for i := int32(0); i < 100; i++ {
		q.Push(Event{Time: 42, A: i})
	}
	for i := int32(0); i < 100; i++ {
		e := q.Pop()
		if e.A != i {
			t.Fatalf("same-time events reordered: got %d at position %d", e.A, i)
		}
	}
}

func TestReset(t *testing.T) {
	q := New(0)
	q.Push(Event{Time: 1})
	q.Push(Event{Time: 2})
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("reset did not empty queue")
	}
	q.Push(Event{Time: 3})
	if q.Pop().Time != 3 {
		t.Fatal("queue unusable after reset")
	}
}

func TestInterleavedPushPop(t *testing.T) {
	q := New(0)
	r := rand.New(rand.NewSource(1))
	var last int64 = -1 << 62
	pending := 0
	for i := 0; i < 10000; i++ {
		if pending == 0 || r.Intn(2) == 0 {
			// Never push an event earlier than the last popped time;
			// mirrors the simulator's no-time-travel invariant.
			tm := last + int64(r.Intn(100))
			if tm < 0 {
				tm = 0
			}
			q.Push(Event{Time: tm})
			pending++
		} else {
			e := q.Pop()
			if e.Time < last {
				t.Fatalf("time went backwards: %d after %d", e.Time, last)
			}
			last = e.Time
			pending--
		}
	}
}

// Property: popping a fully loaded queue yields a non-decreasing sequence.
func TestQuickSorted(t *testing.T) {
	f := func(times []int64) bool {
		q := New(len(times))
		for _, tm := range times {
			q.Push(Event{Time: tm})
		}
		var last int64 = -1 << 63
		for q.Len() > 0 {
			e := q.Pop()
			if e.Time < last {
				return false
			}
			last = e.Time
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: payload fields survive the round trip untouched.
func TestQuickPayloadPreserved(t *testing.T) {
	f := func(kind, rank, a, c int32, b int64) bool {
		q := New(1)
		q.Push(Event{Time: 1, Kind: kind, Rank: rank, A: a, B: b, C: c})
		e := q.Pop()
		return e.Kind == kind && e.Rank == rank && e.A == a && e.B == b && e.C == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	q := New(1024)
	r := rand.New(rand.NewSource(1))
	times := make([]int64, 1024)
	for i := range times {
		times[i] = int64(r.Intn(1 << 30))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(Event{Time: times[i%len(times)]})
		if q.Len() > 512 {
			q.Pop()
		}
	}
}

// The load collective phases put on the queue, shared by
// BenchmarkCollectiveBursts and TestQueueMemoryTracksPeakPopulation:
// burstDays bursts of same-time events, burstSpacing ns apart — a
// prime, so successive bursts land in different buckets of any
// power-of-two width — burstsAhead of them in flight, the oldest
// drained before the next is released.
const (
	burstDays    = 4096
	burstsAhead  = 8
	burstSpacing = 4099
)

// releaseBursts runs one pass of that load from time start, burst(d)
// events in the d-th burst, and returns the most events the queue held
// at once and the time the next pass may start at. It drains the
// oldest burst by its count and fails tb when a pop is not from it or
// the pass leaves anything behind.
func releaseBursts(tb testing.TB, q *Queue, start int64, burst func(d int) int) (peak int, end int64) {
	now := start
	for d := 0; d < burstDays+burstsAhead; d++ {
		if d < burstDays {
			at := start + int64(d)*burstSpacing
			for i := burst(d); i > 0; i-- {
				q.Push(Event{Time: at, A: 0xdead, B: 0xbeef, C: 0xcafe})
			}
		}
		peak = max(peak, q.Len())
		if d < burstsAhead {
			continue
		}
		at := start + int64(d-burstsAhead)*burstSpacing
		for i := burst(d - burstsAhead); i > 0; i-- {
			e := q.Pop()
			if e.Time != at {
				tb.Fatalf("burst %d: popped an event at %d, want %d", d-burstsAhead, e.Time, at)
			}
			now = e.Time
		}
	}
	if q.Len() != 0 {
		tb.Fatalf("pass left %d events", q.Len())
	}
	return peak, now + burstSpacing
}

// BenchmarkCollectiveBursts is the queue under that load with bursts of
// R events, so every burst lands in a different bucket. One op is the
// whole pass — on a queue that has never run ("cold": the pass pays for
// growing it, which is what a cache miss pays) and on one Reset after a
// pass of the same load ("warm": a repetition). Run with a fixed
// iteration count and read the minimum.
func BenchmarkCollectiveBursts(b *testing.B) {
	for _, r := range []int{128, 512} {
		burst := func(int) int { return r }
		perEvent := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burstDays*r), "ns/event")
		}
		b.Run(fmt.Sprintf("cold/%d", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				releaseBursts(b, New(0), 0, burst)
			}
			perEvent(b)
		})
		b.Run(fmt.Sprintf("warm/%d", r), func(b *testing.B) {
			q := New(0)
			releaseBursts(b, q, 0, burst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Reset()
				releaseBursts(b, q, 0, burst)
			}
			perEvent(b)
		})
	}
}
