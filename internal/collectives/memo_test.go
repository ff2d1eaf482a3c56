package collectives

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/memo"
	"repro/internal/trace"
)

// collectiveMix builds a trace exercising every collective kind, with
// application p2p ops interleaved so tag/req rebasing is checked against
// surrounding traffic.
func collectiveMix(n int, size int64) *trace.Trace {
	tr := &trace.Trace{Name: "memo-mix", Ops: make([][]trace.Op, n)}
	for r := 0; r < n; r++ {
		tr.Ops[r] = []trace.Op{
			{Kind: trace.OpCalc, Dur: 1000},
			{Kind: trace.OpBarrier},
			{Kind: trace.OpAllreduce, Size: size},
			{Kind: trace.OpBcast, Peer: 0, Size: size},
			{Kind: trace.OpReduce, Peer: int32(n / 2), Size: size},
			{Kind: trace.OpAllgather, Size: size},
			{Kind: trace.OpAlltoall, Size: size},
			{Kind: trace.OpGather, Peer: 0, Size: size},
			{Kind: trace.OpScatter, Peer: int32(n - 1), Size: size},
			{Kind: trace.OpAllreduce, Size: size}, // repeat: exercises a cache hit
			{Kind: trace.OpCalc, Dur: 500},
		}
	}
	return tr
}

// TestMemoizedExpansionBitIdentical states the property the memo relies
// on: for every schedule key the algorithm zoo produces — each rank of
// each collective, at roots 0, n/2 and n-1 — and for several tag and
// request-id bases, splicing the canonical schedule emits exactly the
// ops, and consumes exactly the request ids, that running the
// algorithm on an expander carrying those bases does.
func TestMemoizedExpansionBitIdentical(t *testing.T) {
	bases := []struct{ tag, req int32 }{
		{0, 0}, {TagBase, ReqBase}, {TagBase + 7, ReqBase + 13}, {TagBase + 1000, ReqBase + 99999},
	}
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16, 31, 64} {
		for _, size := range []int64{0, 8, 4096, 64 << 10} {
			for _, algo := range []AllreduceAlgo{AllreduceAuto, AllreduceRecursiveDoubling, AllreduceRabenseifner, AllreduceRing} {
				t.Run(fmt.Sprintf("n=%d/size=%d/%v", n, size, algo), func(t *testing.T) {
					for r, ops := range collectiveMix(n, size).Ops {
						for _, op := range ops {
							if !op.Kind.IsCollective() {
								continue
							}
							key, err := schedKeyFor(op, int32(n), int32(r), Config{Allreduce: algo})
							if err != nil {
								t.Fatal(err)
							}
							sch := buildCanonical(key)
							for _, b := range bases {
								direct := &expander{rank: key.rank, n: key.n, tag: b.tag, req: b.req}
								direct.runAlgo(key)
								spliced, next := splice(nil, sch.ops, b.tag, b.req), b.req+sch.reqs
								if !reflect.DeepEqual(spliced, direct.out) || next != direct.req {
									t.Fatalf("key %+v at tag %d req %d: splice diverges from the algorithm\nsplice (next req %d): %+v\ndirect (next req %d): %+v",
										key, b.tag, b.req, next, spliced, direct.req, direct.out)
								}
							}
						}
					}
				})
			}
		}
	}
}

// swapScheduleCache points the process-wide memo at a fresh instance
// bounded to capBytes for the duration of the test.
func swapScheduleCache(t *testing.T, capBytes int64) {
	t.Helper()
	prev := schedCache
	schedCache = memo.New[schedKey](capBytes, scheduleCost)
	t.Cleanup(func() { schedCache = prev })
}

// TestScheduleCacheHits: repeated expansion of the same trace must be
// served from the cache, not rebuilt.
func TestScheduleCacheHits(t *testing.T) {
	swapScheduleCache(t, DefaultScheduleCacheBytes)
	tr := collectiveMix(8, 1024)
	first, err := Expand(tr, Config{Allreduce: AllreduceRing})
	if err != nil {
		t.Fatal(err)
	}
	cold := ScheduleCache()
	// nine collectives per rank, the last a repeat of the second
	if cold.Misses != 8*8 || cold.Hits != 8 || cold.Entries != 8*8 {
		t.Fatalf("first expansion: stats = %+v, want 64 misses / 8 hits / 64 entries", cold)
	}
	second, err := Expand(tr, Config{Allreduce: AllreduceRing})
	if err != nil {
		t.Fatal(err)
	}
	warm := ScheduleCache()
	if warm.Misses != cold.Misses || warm.Hits != cold.Hits+8*9 {
		t.Fatalf("second expansion rebuilt schedules: stats = %+v after %+v", warm, cold)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("expansion from memoized schedules differs from the one that built them")
	}
}

// TestScheduleCacheEviction: the cache respects its byte bound as
// charged by scheduleCost, keeps the most recent entry even when it
// alone exceeds the bound, and counts evictions.
func TestScheduleCacheEviction(t *testing.T) {
	swapScheduleCache(t, 3*(schedOpBytes*40+schedEntryOverhead))
	tr := &trace.Trace{Name: "evict", Ops: make([][]trace.Op, 16)}
	for r := range tr.Ops {
		tr.Ops[r] = []trace.Op{{Kind: trace.OpAllreduce, Size: 2048}}
	}
	if _, err := Expand(tr, Config{Allreduce: AllreduceRing}); err != nil {
		t.Fatal(err)
	}
	st := ScheduleCache()
	if st.Entries >= 16 {
		t.Fatalf("no eviction happened: %d entries resident", st.Entries)
	}
	if st.Evictions == 0 || uint64(st.Entries)+st.Evictions != 16 {
		t.Fatalf("eviction counter off: %+v", st)
	}
	if st.SizeBytes > st.CapBytes && st.Entries > 1 {
		t.Fatalf("cache over bound with %d entries: %d > %d", st.Entries, st.SizeBytes, st.CapBytes)
	}

	swapScheduleCache(t, 1) // smaller than any schedule
	if _, err := Expand(tr, Config{Allreduce: AllreduceRing}); err != nil {
		t.Fatal(err)
	}
	if st := ScheduleCache(); st.Entries != 1 || st.Evictions != 15 {
		t.Fatalf("bound below one schedule: %+v, want the newest entry alone", st)
	}
}

// TestScheduleCacheCoalescing: concurrent misses on one key run the
// builder once; everyone gets the same schedule.
func TestScheduleCacheCoalescing(t *testing.T) {
	c := memo.New[schedKey](DefaultScheduleCacheBytes, scheduleCost)
	key := schedKey{kind: trace.OpAlltoall, n: 32, rank: 5, size: 4096}
	var builds atomic.Int64
	gate := make(chan struct{})
	build := func() (schedule, error) {
		builds.Add(1)
		<-gate // hold the flight open so others must coalesce
		return buildCanonical(key), nil
	}

	const workers = 8
	var wg sync.WaitGroup
	results := make([]schedule, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if results[i], _, err = c.GetOrBuild(context.Background(), key, build); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Every worker is either the builder or parked on its flight before
	// the build is allowed to finish.
	for {
		if st := c.Stats(); st.Misses+st.Coalesced == workers {
			break
		}
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times under concurrency, want 1", n)
	}
	for i := 1; i < workers; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("worker %d got a different schedule", i)
		}
	}
	if st := c.Stats(); st.Coalesced != workers-1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 miss and %d coalesced", st, workers-1)
	}
}

// TestScheduleMemoRebuildsAfterBuilderPanic: a builder panic that the
// caller recovers (jobs.attempt does, then retries) must not leave a
// dead flight behind — the retry builds the schedule, it is not
// answered with the dead flight's empty one.
func TestScheduleMemoRebuildsAfterBuilderPanic(t *testing.T) {
	c := memo.New[schedKey](DefaultScheduleCacheBytes, scheduleCost)
	key := schedKey{kind: trace.OpAllreduce, algo: AllreduceRing, n: 8, rank: 3, size: 1024}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("builder panic did not reach the caller")
			}
		}()
		c.GetOrBuild(context.Background(), key, func() (schedule, error) { panic("injected") })
	}()

	sch, hit, err := c.GetOrBuild(context.Background(), key, func() (schedule, error) {
		return buildCanonical(key), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit || !reflect.DeepEqual(sch, buildCanonical(key)) {
		t.Fatalf("retry after the panic: hit=%v schedule=%+v, want a fresh build of the canonical schedule", hit, sch)
	}
	if st := c.Stats(); st.Misses != 2 || st.Coalesced != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 misses / 0 coalesced / 1 entry", st)
	}
}

// TestScheduleCacheProcessWideStats: expanding through the public API
// touches the process-wide cache.
func TestScheduleCacheProcessWideStats(t *testing.T) {
	before := ScheduleCache()
	if _, err := Expand(collectiveMix(8, 512), Config{}); err != nil {
		t.Fatal(err)
	}
	after := ScheduleCache()
	if after.Hits+after.Misses <= before.Hits+before.Misses {
		t.Fatalf("process-wide cache untouched by Expand: before %+v after %+v", before, after)
	}
}
