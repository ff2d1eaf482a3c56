// Schedule memoization. Expanding a collective is pure: the emitted op
// list depends only on (collective kind, algorithm, communicator size,
// rank, root, payload size) plus the tag and request-id bases of the
// instance being expanded. The expansion drivers — repeated experiments,
// sweep workers, the serving daemon — expand the same handful of
// collectives over and over (every iteration of every trace, every
// fresh Simulate), so the schedules are memoized process-wide in a
// size-bounded LRU with in-flight coalescing, mirroring the shape of
// internal/simcache.
//
// Entries are stored in canonical form: tag 0 and request ids counted
// from 0. Splicing an entry into a trace rebases tags and request ids
// by addition, which reproduces exactly what direct emission would have
// produced — the algorithms use e.tag verbatim on every p2p op and
// allocate request ids sequentially (see
// TestMemoizedExpansionBitIdentical).
package collectives

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/trace"
)

// schedKey identifies one canonical collective schedule. The algorithm
// field is the resolved choice (AllreduceAuto is mapped to the concrete
// algorithm before keying), so configurations that behave identically
// share entries.
type schedKey struct {
	kind trace.OpKind
	algo AllreduceAlgo // resolved; 0 for non-allreduce collectives
	n    int32
	rank int32
	root int32
	size int64
}

// schedule is a memoized canonical expansion: tag 0, request ids
// 0..reqs-1. The ops slice is immutable once published.
type schedule struct {
	ops  []trace.Op
	reqs int32
}

// schedFlight is one in-progress canonical build, shared by every
// waiter for its key.
type schedFlight struct {
	done chan struct{}
	sch  schedule
}

// schedOpBytes approximates the resident size of one memoized op.
const schedOpBytes = 40

// schedEntryOverhead accounts for map and list bookkeeping per entry.
const schedEntryOverhead = 160

// DefaultScheduleCacheBytes bounds the process-wide schedule cache:
// 32 MiB, far more than any realistic algorithm/size/rank working set
// (a 4096-rank allreduce schedule is ~40 ops per rank).
const DefaultScheduleCacheBytes = 32 << 20

// ScheduleCacheStats is a point-in-time snapshot of the memoization
// cache's effectiveness.
type ScheduleCacheStats struct {
	// Entries is the number of memoized schedules.
	Entries int `json:"entries"`
	// SizeBytes is the estimated resident size of all entries.
	SizeBytes int64 `json:"size_bytes"`
	// CapBytes is the configured bound.
	CapBytes int64 `json:"cap_bytes"`
	// Hits counts expansions served from a resident schedule.
	Hits uint64 `json:"hits"`
	// Coalesced counts expansions that waited on a concurrent build of
	// the same schedule instead of building their own.
	Coalesced uint64 `json:"coalesced"`
	// Misses counts expansions that built the schedule.
	Misses uint64 `json:"misses"`
	// Evictions counts schedules discarded to respect CapBytes.
	Evictions uint64 `json:"evictions"`
}

// scheduleCache is a size-bounded LRU of canonical schedules with
// in-flight coalescing. All methods are safe for concurrent use.
type scheduleCache struct {
	mu       sync.Mutex
	capBytes int64
	size     int64
	ll       *list.List // front = most recently used; values are *schedEntry
	entries  map[schedKey]*list.Element
	inflight map[schedKey]*schedFlight

	hits      uint64
	coalesced uint64
	misses    uint64
	evictions uint64
}

type schedEntry struct {
	key  schedKey
	sch  schedule
	cost int64
}

func newScheduleCache(capBytes int64) *scheduleCache {
	if capBytes <= 0 {
		capBytes = DefaultScheduleCacheBytes
	}
	return &scheduleCache{
		capBytes: capBytes,
		ll:       list.New(),
		entries:  map[schedKey]*list.Element{},
		inflight: map[schedKey]*schedFlight{},
	}
}

// schedCache is the process-wide memoization cache.
var schedCache = newScheduleCache(DefaultScheduleCacheBytes)

// ScheduleCache returns a snapshot of the process-wide schedule cache
// counters.
func ScheduleCache() ScheduleCacheStats { return schedCache.stats() }

// getOrBuild returns the canonical schedule for key, building it with
// build on a miss. Concurrent requests for an absent key are coalesced:
// one goroutine builds, the rest wait for its result.
func (c *scheduleCache) getOrBuild(key schedKey, build func() schedule) schedule {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		sch := el.Value.(*schedEntry).sch
		c.mu.Unlock()
		return sch
	}
	if f, ok := c.inflight[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		<-f.done
		return f.sch
	}
	f := &schedFlight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	func() {
		// close runs even if the builder panics: waiters for this key
		// must not block forever on a flight that never completes.
		defer close(f.done)
		f.sch = build()
	}()

	c.mu.Lock()
	delete(c.inflight, key)
	c.insertLocked(key, f.sch)
	c.mu.Unlock()
	return f.sch
}

// insertLocked adds the schedule at the LRU front and evicts from the
// back until the size bound holds; the most recent entry is always
// retained. c.mu must be held.
func (c *scheduleCache) insertLocked(key schedKey, sch schedule) {
	if _, ok := c.entries[key]; ok {
		return // a racing build of the same key already inserted
	}
	e := &schedEntry{key: key, sch: sch, cost: int64(len(sch.ops))*schedOpBytes + schedEntryOverhead}
	c.entries[key] = c.ll.PushFront(e)
	c.size += e.cost
	for c.size > c.capBytes && c.ll.Len() > 1 {
		back := c.ll.Back()
		ev := back.Value.(*schedEntry)
		c.ll.Remove(back)
		delete(c.entries, ev.key)
		c.size -= ev.cost
		c.evictions++
	}
}

func (c *scheduleCache) stats() ScheduleCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ScheduleCacheStats{
		Entries:   c.ll.Len(),
		SizeBytes: c.size,
		CapBytes:  c.capBytes,
		Hits:      c.hits,
		Coalesced: c.coalesced,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// resolveAllreduce maps the configured algorithm choice to the concrete
// algorithm used for a payload of the given size.
func (c Config) resolveAllreduce(size int64) AllreduceAlgo {
	if c.Allreduce == AllreduceAuto {
		if size <= c.rabenseifnerMin() {
			return AllreduceRecursiveDoubling
		}
		return AllreduceRabenseifner
	}
	return c.Allreduce
}

// schedKeyFor derives the memoization key for one collective op on one
// rank, resolving AllreduceAuto to its concrete algorithm.
func schedKeyFor(op trace.Op, n, rank int32, cfg Config) (schedKey, error) {
	key := schedKey{kind: op.Kind, n: n, rank: rank, size: op.Size}
	switch op.Kind {
	case trace.OpBcast, trace.OpReduce, trace.OpGather, trace.OpScatter:
		key.root = op.Peer
	case trace.OpAllreduce:
		key.algo = cfg.resolveAllreduce(op.Size)
		switch key.algo {
		case AllreduceRecursiveDoubling, AllreduceRabenseifner, AllreduceRing:
		default:
			return schedKey{}, fmt.Errorf("collectives: unknown allreduce algorithm %d", cfg.Allreduce)
		}
	case trace.OpBarrier:
		key.size = 0 // dissemination barrier carries no payload
	case trace.OpAllgather, trace.OpAlltoall:
	default:
		return schedKey{}, fmt.Errorf("collectives: unhandled collective %s", op.Kind)
	}
	return key, nil
}

// runAlgo dispatches the expansion algorithm for key on this expander,
// emitting with whatever tag and request bases it carries.
// buildCanonical runs it on a zero-based one.
func (e *expander) runAlgo(key schedKey) {
	switch key.kind {
	case trace.OpBarrier:
		e.dissemination(0)
	case trace.OpBcast:
		e.binomialBcast(key.root, key.size)
	case trace.OpReduce:
		e.binomialReduce(key.root, key.size)
	case trace.OpAllreduce:
		switch key.algo {
		case AllreduceRecursiveDoubling:
			e.recursiveDoublingAllreduce(key.size)
		case AllreduceRabenseifner:
			e.rabenseifnerAllreduce(key.size)
		case AllreduceRing:
			e.ringAllreduce(key.size)
		}
	case trace.OpAllgather:
		e.bruckAllgather(key.size)
	case trace.OpAlltoall:
		e.bruckAlltoall(key.size)
	case trace.OpGather:
		e.binomialGather(key.root, key.size)
	case trace.OpScatter:
		e.binomialScatter(key.root, key.size)
	}
}

// buildCanonical runs the expansion algorithm for key with tag 0 and
// request ids from 0, producing the canonical schedule.
func buildCanonical(key schedKey) schedule {
	e := &expander{rank: key.rank, n: key.n, tag: 0, req: 0}
	e.runAlgo(key)
	return schedule{ops: e.out, reqs: e.req}
}

// splice appends the canonical schedule to the expander's output,
// rebasing tags by the instance tag and request ids by the expander's
// running request counter — exactly the values direct emission would
// have assigned.
func (e *expander) splice(sch schedule) {
	tag, req := e.tag, e.req
	for _, op := range sch.ops {
		switch op.Kind {
		case trace.OpSend, trace.OpRecv, trace.OpIsend, trace.OpIrecv:
			op.Tag += tag
		}
		switch op.Kind {
		case trace.OpIsend, trace.OpIrecv, trace.OpWait:
			op.Req += req
		}
		e.out = append(e.out, op)
	}
	e.req += sch.reqs
}
