package noise

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/rng"
)

// fixedGaps is a deterministic arrival process: every inter-arrival gap
// is the same constant, so arrival times land at exact multiples of the
// gap and boundary semantics can be pinned precisely.
type fixedGaps int64

func (g fixedGaps) NextGap(*rng.Source, *uint64) int64 { return int64(g) }
func (g fixedGaps) MeanGap() float64                   { return float64(g) }
func (g fixedGaps) String() string                     { return fmt.Sprintf("fixedgaps(%dns)", int64(g)) }

// fixedGapsBatched is fixedGaps with batch support.
type fixedGapsBatched struct{ fixedGaps }

func (g fixedGapsBatched) AppendGaps(dst []int64, _ *rng.Source, _ *uint64, n int) []int64 {
	for i := 0; i < n; i++ {
		dst = append(dst, int64(g.fixedGaps))
	}
	return dst
}

// unbatched strips the GapBatcher implementation from an arrival
// process, forcing CE onto the one-at-a-time path.
type unbatched struct{ Arrivals }

// TestExactlyOnHorizonArrival pins the boundary contract: an arrival
// exactly at the start of a busy window is charged to that window; an
// arrival exactly at the end of a busy window is NOT charged to it, but
// to the next window that covers it — in both cases exactly once.
// Regression test for the batched-arrival rewrite: the prefetch buffer
// must not shift which window a boundary arrival lands in.
func TestExactlyOnHorizonArrival(t *testing.T) {
	for _, tc := range []struct {
		name string
		arr  Arrivals
	}{
		{"unbatched", fixedGaps(100)},
		{"batched", fixedGapsBatched{fixedGaps(100)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewCE(1, Config{Seed: 1, Arrivals: tc.arr, Duration: Fixed(7), Target: AllNodes})
			if err != nil {
				t.Fatal(err)
			}
			// Arrivals at t=100, 200, 300, ...
			// Window [0,100): arrival at 100 is exactly the horizon — not
			// charged here.
			if end := m.Extend(0, 0, 100); end != 100 {
				t.Fatalf("window [0,100): end = %d, want 100 (horizon arrival charged early)", end)
			}
			if m.Events() != 0 {
				t.Fatalf("window [0,100): %d events charged, want 0", m.Events())
			}
			// Window [100,150): arrival at 100 is exactly the start —
			// charged here, exactly once.
			if end := m.Extend(0, 100, 50); end != 157 {
				t.Fatalf("window [100,150): end = %d, want 157", end)
			}
			if m.Events() != 1 {
				t.Fatalf("window [100,150): %d events charged, want 1", m.Events())
			}
			// Window [157,200): next arrival at 200 is the horizon again.
			if end := m.Extend(0, 157, 43); end != 200 {
				t.Fatalf("window [157,200): end = %d, want 200", end)
			}
			if m.Events() != 1 {
				t.Fatalf("window [157,200): arrival at 200 charged twice or early: %d events", m.Events())
			}
			// Window [250,260): the arrival at 200 fell in idle time
			// [200,250) — dropped without charge, not carried forward.
			if end := m.Extend(0, 250, 10); end != 260 {
				t.Fatalf("window [250,260): end = %d, want 260", end)
			}
			if m.Events() != 1 {
				t.Fatalf("idle arrival was charged: %d events", m.Events())
			}
			// Window [260,301): arrival at 300 charged once.
			if end := m.Extend(0, 260, 41); end != 308 {
				t.Fatalf("window [260,301): end = %d, want 308", end)
			}
			if m.Events() != 2 {
				t.Fatalf("window [260,301): %d events, want 2", m.Events())
			}
		})
	}
}

// TestBatchedMatchesUnbatched replays identical random window sequences
// through a batching CE and a forced-unbatched CE with the same seed,
// for each batch-capable arrival process, and requires identical ends,
// event counts and stolen time. This is the bit-identity proof for the
// amortized block generation.
func TestBatchedMatchesUnbatched(t *testing.T) {
	train, err := burstTrain(200_000, 2_000, 5).Process()
	if err != nil {
		t.Fatal(err)
	}
	arrs := []Arrivals{Poisson(50_000), train}
	durs := []Duration{Fixed(1_000), EveryNth{Base: 500, Extra: 20_000, N: 10}}
	for _, arr := range arrs {
		for _, dur := range durs {
			t.Run(fmt.Sprintf("%v/%v", arr, dur), func(t *testing.T) {
				a, err := NewCE(4, Config{Seed: 42, Arrivals: arr, Duration: dur, Target: AllNodes})
				if err != nil {
					t.Fatal(err)
				}
				b, err := NewCE(4, Config{Seed: 42, Arrivals: unbatched{arr}, Duration: dur, Target: AllNodes})
				if err != nil {
					t.Fatal(err)
				}
				if a.batcher == nil {
					t.Fatal("batching not engaged on batch-capable process")
				}
				if b.batcher != nil {
					t.Fatal("unbatched wrapper still batching")
				}
				r := rand.New(rand.NewSource(9))
				clock := [4]int64{}
				for i := 0; i < 4000; i++ {
					node := int32(r.Intn(4))
					start := clock[node] + int64(r.Intn(30_000))
					d := int64(r.Intn(20_000))
					ea, eb := a.Extend(node, start, d), b.Extend(node, start, d)
					if ea != eb {
						t.Fatalf("step %d node %d [%d,+%d): batched end %d, unbatched end %d", i, node, start, d, ea, eb)
					}
					clock[node] = ea
				}
				if a.Events() != b.Events() || a.Stolen() != b.Stolen() {
					t.Fatalf("counters diverged: events %d vs %d, stolen %d vs %d", a.Events(), b.Events(), a.Stolen(), b.Stolen())
				}
			})
		}
	}
}

// TestNextArrivalContract checks the cacheability contract the
// simulator relies on: NextArrival reports the next arrival time, a
// window ending at or before it is a no-op, and the value stays valid
// until the next Extend call on that node.
func TestNextArrivalContract(t *testing.T) {
	m, err := NewCE(2, Config{Seed: 3, MTBCE: 10_000, Duration: Fixed(100), Target: AllNodes})
	if err != nil {
		t.Fatal(err)
	}
	next := m.NextArrival(0)
	if next <= 0 {
		t.Fatalf("first arrival at %d, want positive", next)
	}
	// Windows that end exactly at the arrival charge nothing and leave
	// the schedule untouched.
	if end := m.Extend(0, 0, next); end != next {
		t.Fatalf("window up to arrival: end %d, want %d", end, next)
	}
	if got := m.NextArrival(0); got != next {
		t.Fatalf("no-op window moved the arrival: %d -> %d", next, got)
	}
	// A window that covers it charges it and advances the schedule.
	if end := m.Extend(0, 0, next+1); end != next+1+100 {
		t.Fatalf("covering window: end %d, want %d", end, next+1+100)
	}
	if got := m.NextArrival(0); got <= next {
		t.Fatalf("arrival schedule did not advance: %d -> %d", next, got)
	}
	// Targeted models report no arrivals on other nodes.
	tm, err := NewCE(2, Config{Seed: 3, MTBCE: 10_000, Duration: Fixed(100), Target: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tm.NextArrival(0); got != math.MaxInt64 {
		t.Fatalf("untargeted node reports arrival at %d, want MaxInt64", got)
	}
}
