// Package collectives expands MPI collective operations into the
// point-to-point schedules the simulator executes.
//
// LogGOPSim dissolves collectives into their constituent messages so that
// the simulator reproduces the exact dependency structure of each
// algorithm — which is what makes local detours (correctable-error
// handling) propagate realistically. This package implements the standard
// algorithm zoo:
//
//   - broadcast / reduce / gather / scatter: binomial trees
//   - barrier: dissemination
//   - allreduce: recursive doubling, Rabenseifner (reduce-scatter +
//     allgather), or ring; selectable for ablation studies
//   - allgather: Bruck (dissemination)
//   - alltoall: Bruck
//
// Expansion rewrites a trace in place of each collective op using
// reserved tag and request-id spaces (TagBase, ReqBase), so expanded
// messages can never match application point-to-point traffic. A rank's
// expansion is reported to a Sink, collective instance by instance, as
// a shared canonical schedule plus the bases to add; Expand and
// AppendRank flatten that into plain ops.
package collectives

import (
	"context"
	"fmt"

	"repro/internal/trace"
)

// TagBase is the first tag used for expanded collective messages.
// Application traces must keep user tags below this value.
const TagBase int32 = 1 << 28

// ReqBase is the first request id used for expanded nonblocking
// operations. Application traces must keep request ids below this value.
const ReqBase int32 = 1 << 30

// AllreduceAlgo selects the allreduce expansion algorithm.
type AllreduceAlgo int

// Allreduce algorithm choices.
const (
	// AllreduceAuto picks recursive doubling for small payloads and
	// Rabenseifner above RabenseifnerMin bytes.
	AllreduceAuto AllreduceAlgo = iota
	AllreduceRecursiveDoubling
	AllreduceRabenseifner
	AllreduceRing
)

// String returns the algorithm name.
func (a AllreduceAlgo) String() string {
	switch a {
	case AllreduceAuto:
		return "auto"
	case AllreduceRecursiveDoubling:
		return "recursive-doubling"
	case AllreduceRabenseifner:
		return "rabenseifner"
	case AllreduceRing:
		return "ring"
	}
	return fmt.Sprintf("allreducealgo(%d)", int(a))
}

// Config controls expansion.
type Config struct {
	// Allreduce selects the allreduce algorithm (default AllreduceAuto).
	Allreduce AllreduceAlgo
	// RabenseifnerMin is the payload size (bytes) above which
	// AllreduceAuto switches from recursive doubling to Rabenseifner.
	// Zero means the default of 16 KiB.
	RabenseifnerMin int64
}

func (c Config) rabenseifnerMin() int64 {
	if c.RabenseifnerMin <= 0 {
		return 16 << 10
	}
	return c.RabenseifnerMin
}

// expander accumulates the ops one collective algorithm emits on one
// rank (see buildCanonical).
type expander struct {
	rank int32
	n    int32
	out  []trace.Op
	tag  int32 // tag for the collective instance being expanded
	req  int32 // next request id in the reserved space
}

func (e *expander) emit(op trace.Op) { e.out = append(e.out, op) }

// sendRecv emits a simultaneous exchange with partner: post the receive,
// send, then wait for the receive. This is the deadlock-free sendrecv
// idiom used by all symmetric rounds.
func (e *expander) sendRecv(partner int32, sendSize, recvSize int64) {
	req := e.req
	e.req++
	e.emit(trace.Irecv(partner, recvSize, e.tag, req))
	e.emit(trace.Send(partner, sendSize, e.tag))
	e.emit(trace.Wait(req))
}

// Expand rewrites every collective in t into point-to-point operations
// and returns the new trace. The input is not modified. It returns an
// error if the trace is structurally invalid (mismatched collective
// sequences across ranks, tags or request ids inside the reserved
// space). It is an Expander fed every rank in turn through AppendRank,
// each result copied into a slice of exactly its length.
func Expand(t *trace.Trace, cfg Config) (*trace.Trace, error) {
	x, err := NewExpander(t.NumRanks(), cfg)
	if err != nil {
		return nil, err
	}
	out := &trace.Trace{Name: t.Name, Ops: make([][]trace.Op, len(t.Ops))}
	var scratch []trace.Op
	for r, ops := range t.Ops {
		if scratch, err = x.AppendRank(scratch[:0], r, ops); err != nil {
			return nil, err
		}
		out.Ops[r] = make([]trace.Op, len(scratch))
		copy(out.Ops[r], scratch)
	}
	return out, nil
}

// Sink receives one rank's expansion, in op order.
type Sink interface {
	// Ops takes a run of the rank's ops between two collectives, as
	// they are. The slice is the caller's; the sink must not keep it.
	Ops(ops []trace.Op)
	// Collective takes one collective instance. ops is its schedule on
	// this rank in canonical form — tag 0, request ids from 0 — shared
	// process-wide and immutable; the instance is ops with tag added to
	// every message's tag and req to every request id. sched numbers the
	// rank's distinct schedules from 0 in order of first appearance, so
	// a sink that keeps one copy per schedule indexes them by it.
	Collective(sched int, ops []trace.Op, tag, req int32)
}

// Expander expands the collectives of one trace a rank at a time, so
// a caller that generates and consumes ranks one by one never holds
// the whole trace in either form. Ranks must be fed in order from 0:
// rank 0's collective sequence is kept and every later rank checked
// against it. An Expander serves one trace and one goroutine.
type Expander struct {
	cfg  Config
	n    int32
	next int // the rank ExpandRank must be given next
	// first is rank 0's collective ops; seq is the current rank's,
	// reused from rank to rank, as is scheds, the number each of the
	// rank's distinct schedules goes by (Sink.Collective).
	first, seq []trace.Op
	scheds     map[schedKey]int
	flat       flattener // AppendRank's sink
}

// NewExpander returns an Expander for a trace of the given rank count.
func NewExpander(ranks int, cfg Config) (*Expander, error) {
	if ranks < 1 {
		return nil, trace.ErrEmptyTrace
	}
	return &Expander{cfg: cfg, n: int32(ranks), scheds: map[schedKey]int{}}, nil
}

// flattener is the Sink that writes an expansion out as plain ops.
type flattener struct{ out []trace.Op }

func (f *flattener) Ops(ops []trace.Op) { f.out = append(f.out, ops...) }

func (f *flattener) Collective(_ int, ops []trace.Op, tag, req int32) {
	f.out = splice(f.out, ops, tag, req)
}

// AppendRank appends rank r's ops to dst with every collective
// replaced by its point-to-point schedule, and returns the extended
// slice: ExpandRank into a sink that flattens. On failure it returns
// dst as it was given.
func (x *Expander) AppendRank(dst []trace.Op, r int, ops []trace.Op) ([]trace.Op, error) {
	x.flat.out = dst
	err := x.ExpandRank(&x.flat, r, ops)
	out := x.flat.out
	x.flat.out = nil
	if err != nil {
		return dst, err
	}
	return out, nil
}

// ExpandRank reports rank r's ops to sink with every collective
// replaced by its point-to-point schedule. ops is not modified. It
// fails if r is not the next rank in order, if an op uses a tag or
// request id inside the reserved space, or if the rank's collectives
// disagree with rank 0's; after a failure the Expander is spent and
// what the sink received is incomplete.
func (x *Expander) ExpandRank(sink Sink, r int, ops []trace.Op) error {
	if r != x.next {
		return fmt.Errorf("collectives: rank %d fed out of order, want rank %d", r, x.next)
	}
	if r >= int(x.n) {
		return fmt.Errorf("collectives: rank %d fed to an expander of %d ranks", r, x.n)
	}
	x.next++
	clear(x.scheds)
	seq := x.seq[:0]
	req := ReqBase // next request id in the reserved space
	run := 0       // ops[run:i] have not gone to the sink yet
	for i, op := range ops {
		if !op.Kind.IsCollective() {
			switch op.Kind {
			case trace.OpSend, trace.OpRecv, trace.OpIsend, trace.OpIrecv:
				if op.Tag >= TagBase {
					return fmt.Errorf("collectives: rank %d op %d uses reserved tag %d", r, i, op.Tag)
				}
			}
			switch op.Kind {
			case trace.OpIsend, trace.OpIrecv, trace.OpWait:
				if op.Req >= ReqBase {
					return fmt.Errorf("collectives: rank %d op %d uses reserved request id %d", r, i, op.Req)
				}
			}
			continue
		}
		if run < i {
			sink.Ops(ops[run:i])
		}
		run = i + 1
		tag := TagBase + int32(len(seq))
		seq = append(seq, op)
		key, err := schedKeyFor(op, x.n, int32(r), x.cfg)
		if err != nil {
			return err
		}
		// The builder cannot fail; the only error is a concurrent build of
		// the same key that panicked (memo.ErrBuildAborted).
		sch, _, err := schedCache.GetOrBuild(context.Background(), key, func() (schedule, error) {
			return buildCanonical(key), nil
		})
		if err != nil {
			return fmt.Errorf("collectives: schedule for rank %d %s: %w", r, op.Kind, err)
		}
		if len(sch.ops) == 0 {
			continue // a one-rank communicator: nothing to exchange
		}
		id, seen := x.scheds[key]
		if !seen {
			id = len(x.scheds)
			x.scheds[key] = id
		}
		sink.Collective(id, sch.ops, tag, req)
		req += sch.reqs
	}
	if run < len(ops) {
		sink.Ops(ops[run:])
	}
	if r == 0 {
		x.first = append(x.first, seq...)
	} else if len(seq) != len(x.first) {
		return fmt.Errorf("collectives: rank %d has %d collectives, rank 0 has %d", r, len(seq), len(x.first))
	} else {
		for i := range seq {
			if seq[i].Kind != x.first[i].Kind || seq[i].Size != x.first[i].Size || seq[i].Peer != x.first[i].Peer {
				return fmt.Errorf("collectives: rank %d collective %d (%s) disagrees with rank 0 (%s)",
					r, i, seq[i].Kind, x.first[i].Kind)
			}
		}
	}
	x.seq = seq
	return nil
}

// dissemination emits the dissemination pattern: ceil(log2 n) rounds,
// in round k exchanging with ranks at distance 2^k. size is the payload
// per message (0 for barrier).
func (e *expander) dissemination(size int64) {
	n := e.n
	if n == 1 {
		return
	}
	for dist := int32(1); dist < n; dist *= 2 {
		to := (e.rank + dist) % n
		from := (e.rank - dist + n) % n
		if to == from {
			// n == 2: single partner exchange.
			e.sendRecv(to, size, size)
			continue
		}
		req := e.req
		e.req++
		e.emit(trace.Irecv(from, size, e.tag, req))
		e.emit(trace.Send(to, size, e.tag))
		e.emit(trace.Wait(req))
	}
}

// binomialBcast emits the binomial-tree broadcast rooted at root.
func (e *expander) binomialBcast(root int32, size int64) {
	n := e.n
	if n == 1 {
		return
	}
	vrank := (e.rank - root + n) % n
	mask := int32(1)
	for mask < n {
		if vrank&mask != 0 {
			src := e.rank - mask
			if src < 0 {
				src += n
			}
			e.emit(trace.Recv(src, size, e.tag))
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vrank+mask < n {
			dst := e.rank + mask
			if dst >= n {
				dst -= n
			}
			e.emit(trace.Send(dst, size, e.tag))
		}
		mask >>= 1
	}
}

// binomialReduce emits the binomial-tree reduction rooted at root.
// Children send partial results to parents; the pattern is the mirror of
// binomialBcast.
func (e *expander) binomialReduce(root int32, size int64) {
	n := e.n
	if n == 1 {
		return
	}
	vrank := (e.rank - root + n) % n
	mask := int32(1)
	for mask < n {
		if vrank&mask == 0 {
			vsrc := vrank | mask
			if vsrc < n {
				src := (vsrc + root) % n
				e.emit(trace.Recv(src, size, e.tag))
			}
		} else {
			vdst := vrank &^ mask
			dst := (vdst + root) % n
			e.emit(trace.Send(dst, size, e.tag))
			break
		}
		mask <<= 1
	}
}

// recursiveDoublingAllreduce emits the recursive-doubling allreduce.
// For non-power-of-two rank counts it uses the standard preamble: the
// lowest 2*rem ranks pair up so that rem ranks drop out, the remaining
// power-of-two ranks run recursive doubling, and results fan back out.
func (e *expander) recursiveDoublingAllreduce(size int64) {
	n := e.n
	if n == 1 {
		return
	}
	pof2 := int32(1)
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	rank := e.rank
	var newRank int32
	switch {
	case rank < 2*rem && rank%2 == 0:
		// Even rank in the remainder region: send everything to the odd
		// neighbour and drop out until the end.
		e.emit(trace.Send(rank+1, size, e.tag))
		newRank = -1
	case rank < 2*rem:
		// Odd rank: absorb the even neighbour's contribution.
		e.emit(trace.Recv(rank-1, size, e.tag))
		newRank = rank / 2
	default:
		newRank = rank - rem
	}
	if newRank >= 0 {
		for mask := int32(1); mask < pof2; mask <<= 1 {
			newPartner := newRank ^ mask
			partner := newPartner
			if newPartner < rem {
				partner = newPartner*2 + 1
			} else {
				partner = newPartner + rem
			}
			e.sendRecv(partner, size, size)
		}
	}
	// Fan results back to the dropped-out even ranks.
	if rank < 2*rem {
		if rank%2 == 0 {
			e.emit(trace.Recv(rank+1, size, e.tag))
		} else {
			e.emit(trace.Send(rank-1, size, e.tag))
		}
	}
}

// rabenseifnerAllreduce emits Rabenseifner's algorithm: recursive-halving
// reduce-scatter followed by recursive-doubling allgather. Bandwidth
// optimal for large payloads. Non-power-of-two counts use the same
// remainder preamble as recursive doubling.
func (e *expander) rabenseifnerAllreduce(size int64) {
	n := e.n
	if n == 1 {
		return
	}
	pof2 := int32(1)
	for pof2*2 <= n {
		pof2 *= 2
	}
	if pof2 < 2 {
		e.recursiveDoublingAllreduce(size)
		return
	}
	rem := n - pof2
	rank := e.rank
	var newRank int32
	switch {
	case rank < 2*rem && rank%2 == 0:
		e.emit(trace.Send(rank+1, size, e.tag))
		newRank = -1
	case rank < 2*rem:
		e.emit(trace.Recv(rank-1, size, e.tag))
		newRank = rank / 2
	default:
		newRank = rank - rem
	}
	if newRank >= 0 {
		toReal := func(vr int32) int32 {
			if vr < rem {
				return vr*2 + 1
			}
			return vr + rem
		}
		// Reduce-scatter: halve the exchanged payload each round.
		chunk := size / 2
		for mask := pof2 / 2; mask > 0; mask /= 2 {
			partner := toReal(newRank ^ mask)
			if chunk < 1 {
				chunk = 1
			}
			e.sendRecv(partner, chunk, chunk)
			chunk /= 2
		}
		// Allgather: double the exchanged payload each round.
		chunk = size / pof2Int64(pof2)
		if chunk < 1 {
			chunk = 1
		}
		for mask := int32(1); mask < pof2; mask <<= 1 {
			partner := toReal(newRank ^ mask)
			e.sendRecv(partner, chunk, chunk)
			chunk *= 2
		}
	}
	if rank < 2*rem {
		if rank%2 == 0 {
			e.emit(trace.Recv(rank+1, size, e.tag))
		} else {
			e.emit(trace.Send(rank-1, size, e.tag))
		}
	}
}

func pof2Int64(v int32) int64 { return int64(v) }

// ringAllreduce emits the ring allreduce: (n-1) reduce-scatter steps plus
// (n-1) allgather steps, each moving size/n bytes to the right neighbour.
func (e *expander) ringAllreduce(size int64) {
	n := e.n
	if n == 1 {
		return
	}
	chunk := size / int64(n)
	if chunk < 1 {
		chunk = 1
	}
	right := (e.rank + 1) % n
	left := (e.rank - 1 + n) % n
	for step := int32(0); step < 2*(n-1); step++ {
		if right == left {
			e.sendRecv(right, chunk, chunk)
			continue
		}
		req := e.req
		e.req++
		e.emit(trace.Irecv(left, chunk, e.tag, req))
		e.emit(trace.Send(right, chunk, e.tag))
		e.emit(trace.Wait(req))
	}
}

// bruckAllgather emits the Bruck allgather: ceil(log2 n) rounds; round k
// exchanges min(2^k, n-2^k) blocks with ranks at distance 2^k.
func (e *expander) bruckAllgather(size int64) {
	n := e.n
	if n == 1 {
		return
	}
	for dist := int32(1); dist < n; dist *= 2 {
		blocks := dist
		if n-dist < blocks {
			blocks = n - dist
		}
		payload := size * int64(blocks)
		to := (e.rank - dist + n) % n
		from := (e.rank + dist) % n
		if to == from {
			e.sendRecv(to, payload, payload)
			continue
		}
		req := e.req
		e.req++
		e.emit(trace.Irecv(from, payload, e.tag, req))
		e.emit(trace.Send(to, payload, e.tag))
		e.emit(trace.Wait(req))
	}
}

// bruckAlltoall emits the Bruck alltoall: ceil(log2 n) rounds, each
// moving about half the local data to a rank at distance 2^k.
func (e *expander) bruckAlltoall(size int64) {
	n := e.n
	if n == 1 {
		return
	}
	for dist := int32(1); dist < n; dist *= 2 {
		// Count blocks whose index has the dist bit set: that is the
		// amount relocated this round.
		blocks := int64(0)
		for b := int32(1); b < n; b++ {
			if b&dist != 0 {
				blocks++
			}
		}
		payload := size * blocks
		to := (e.rank + dist) % n
		from := (e.rank - dist + n) % n
		if to == from {
			e.sendRecv(to, payload, payload)
			continue
		}
		req := e.req
		e.req++
		e.emit(trace.Irecv(from, payload, e.tag, req))
		e.emit(trace.Send(to, payload, e.tag))
		e.emit(trace.Wait(req))
	}
}

// binomialGather emits a binomial-tree gather to root. Message sizes are
// proportional to the sender's subtree size.
func (e *expander) binomialGather(root int32, size int64) {
	n := e.n
	if n == 1 {
		return
	}
	vrank := (e.rank - root + n) % n
	mask := int32(1)
	for mask < n {
		if vrank&mask == 0 {
			vsrc := vrank | mask
			if vsrc < n {
				sub := subtreeSize(vsrc, mask, n)
				src := (vsrc + root) % n
				e.emit(trace.Recv(src, size*int64(sub), e.tag))
			}
		} else {
			vdst := vrank &^ mask
			sub := subtreeSize(vrank, mask, n)
			dst := (vdst + root) % n
			e.emit(trace.Send(dst, size*int64(sub), e.tag))
			break
		}
		mask <<= 1
	}
}

// binomialScatter emits a binomial-tree scatter from root: the mirror of
// gather, with parents sending subtree-sized blocks to children.
func (e *expander) binomialScatter(root int32, size int64) {
	n := e.n
	if n == 1 {
		return
	}
	vrank := (e.rank - root + n) % n
	mask := int32(1)
	recvMask := int32(0)
	for mask < n {
		if vrank&mask != 0 {
			recvMask = mask
			break
		}
		mask <<= 1
	}
	if recvMask != 0 {
		vsrc := vrank &^ recvMask
		sub := subtreeSize(vrank, recvMask, n)
		src := (vsrc + root) % n
		e.emit(trace.Recv(src, size*int64(sub), e.tag))
	} else {
		recvMask = mask // == first power of two >= n for root
	}
	for m := recvMask >> 1; m > 0; m >>= 1 {
		vdst := vrank | m
		if vdst < n && vdst != vrank {
			sub := subtreeSize(vdst, m, n)
			dst := (vdst + root) % n
			e.emit(trace.Send(dst, size*int64(sub), e.tag))
		}
	}
}

// subtreeSize returns the number of ranks in the binomial subtree rooted
// at virtual rank vroot whose incoming edge used the given mask: the
// subtree spans [vroot, min(vroot+mask, n)).
func subtreeSize(vroot, mask, n int32) int32 {
	end := vroot + mask
	if end > n {
		end = n
	}
	return end - vroot
}
