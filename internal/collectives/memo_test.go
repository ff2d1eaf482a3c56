package collectives

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

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
								spliced := &expander{rank: key.rank, n: key.n, tag: b.tag, req: b.req}
								spliced.splice(sch)
								if !reflect.DeepEqual(spliced.out, direct.out) || spliced.req != direct.req {
									t.Fatalf("key %+v at tag %d req %d: splice diverges from the algorithm\nsplice (next req %d): %+v\ndirect (next req %d): %+v",
										key, b.tag, b.req, spliced.req, spliced.out, direct.req, direct.out)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestScheduleCacheHits: repeated expansion of the same trace must be
// served from the cache, not rebuilt.
func TestScheduleCacheHits(t *testing.T) {
	c := newScheduleCache(0)
	builds := 0
	key := schedKey{kind: trace.OpAllreduce, algo: AllreduceRing, n: 8, rank: 3, size: 1024}
	build := func() schedule { builds++; return buildCanonical(key) }
	first := c.getOrBuild(key, build)
	second := c.getOrBuild(key, build)
	if builds != 1 {
		t.Fatalf("schedule built %d times, want 1", builds)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cache returned a different schedule on the hit")
	}
	st := c.stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestScheduleCacheEviction: the cache respects its byte bound, keeps
// the most recent entry even when it alone exceeds the bound, and
// counts evictions.
func TestScheduleCacheEviction(t *testing.T) {
	c := newScheduleCache(3 * (schedOpBytes*40 + schedEntryOverhead))
	for i := int32(0); i < 16; i++ {
		key := schedKey{kind: trace.OpAllreduce, algo: AllreduceRing, n: 16, rank: i, size: 2048}
		c.getOrBuild(key, func() schedule { return buildCanonical(key) })
	}
	st := c.stats()
	if st.Entries >= 16 {
		t.Fatalf("no eviction happened: %d entries resident", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("eviction counter not incremented")
	}
	if st.SizeBytes > st.CapBytes && st.Entries > 1 {
		t.Fatalf("cache over bound with %d entries: %d > %d", st.Entries, st.SizeBytes, st.CapBytes)
	}
}

// TestScheduleCacheCoalescing: concurrent misses on one key run the
// builder once; everyone gets the same schedule.
func TestScheduleCacheCoalescing(t *testing.T) {
	c := newScheduleCache(0)
	key := schedKey{kind: trace.OpAlltoall, n: 32, rank: 5, size: 4096}
	var mu sync.Mutex
	builds := 0
	gate := make(chan struct{})
	build := func() schedule {
		mu.Lock()
		builds++
		mu.Unlock()
		<-gate // hold the flight open so others must coalesce
		return buildCanonical(key)
	}

	const workers = 8
	var wg sync.WaitGroup
	results := make([]schedule, workers)
	started := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			results[i] = c.getOrBuild(key, build)
		}(i)
	}
	for i := 0; i < workers; i++ {
		<-started
	}
	close(gate)
	wg.Wait()

	if builds != 1 {
		t.Fatalf("builder ran %d times under concurrency, want 1", builds)
	}
	for i := 1; i < workers; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("worker %d got a different schedule", i)
		}
	}
	if st := c.stats(); st.Coalesced == 0 {
		t.Fatalf("no coalesced lookups recorded: %+v", st)
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
