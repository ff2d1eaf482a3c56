// Schedule memoization. Expanding a collective is pure: the emitted op
// list depends only on (collective kind, algorithm, communicator size,
// rank, root, payload size) plus the tag and request-id bases of the
// instance being expanded. The expansion drivers — repeated experiments,
// sweep workers, the serving daemon — expand the same handful of
// collectives over and over (every iteration of every trace, every
// fresh Simulate), so the schedules are memoized process-wide in an
// internal/memo cache: byte-bounded LRU, one build per absent key.
//
// Entries are stored in canonical form: tag 0 and request ids counted
// from 0. An instance is an entry with its tags and request ids rebased
// by addition, which reproduces exactly what direct emission would have
// produced — the algorithms use e.tag verbatim on every p2p op and
// allocate request ids sequentially (see
// TestMemoizedExpansionBitIdentical). ExpandRank hands the entry and
// the two bases to its Sink: the simulator's builder compiles the entry
// once per rank and adds the bases when it runs (a loggopsim segment),
// and only the flattening sink behind Expand/AppendRank copies it out
// (splice).
package collectives

import (
	"fmt"
	"unsafe"

	"repro/internal/memo"
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

// schedOpBytes is the resident size of one memoized op.
const schedOpBytes = int64(unsafe.Sizeof(trace.Op{}))

// schedEntryOverhead accounts for map and list bookkeeping per entry.
const schedEntryOverhead = 160

// DefaultScheduleCacheBytes bounds the process-wide schedule cache:
// 32 MiB, far more than any realistic algorithm/size/rank working set
// (a 4096-rank allreduce schedule is ~40 ops, 1.4 KiB, per rank).
const DefaultScheduleCacheBytes = 32 << 20

// ScheduleCacheStats is a point-in-time snapshot of the memoization
// cache's effectiveness; sizes are bytes as charged by scheduleCost.
type ScheduleCacheStats = memo.Stats

// scheduleCost is the estimated resident size of one memoized schedule.
func scheduleCost(sch schedule) int64 {
	return int64(len(sch.ops))*schedOpBytes + schedEntryOverhead
}

// schedCache is the process-wide memoization cache.
var schedCache = memo.New[schedKey](DefaultScheduleCacheBytes, scheduleCost)

// ScheduleCache returns a snapshot of the process-wide schedule cache
// counters.
func ScheduleCache() ScheduleCacheStats { return schedCache.Stats() }

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

// splice appends a canonical schedule to dst with tags rebased by tag
// and request ids by req — exactly the values direct emission at those
// bases would have assigned.
func splice(dst, ops []trace.Op, tag, req int32) []trace.Op {
	for _, op := range ops {
		switch op.Kind {
		case trace.OpSend, trace.OpRecv, trace.OpIsend, trace.OpIrecv:
			op.Tag += tag
		}
		switch op.Kind {
		case trace.OpIsend, trace.OpIrecv, trace.OpWait:
			op.Req += req
		}
		dst = append(dst, op)
	}
	return dst
}
