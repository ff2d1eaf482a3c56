package loggopsim

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/netmodel"
	"repro/internal/trace"
)

// cop is a compiled trace operation, 24 bytes. Lowering resolves
// everything that does not depend on simulated time — the
// eager/rendezvous protocol decision, the LogGOPS send CPU / NIC gap /
// transit costs (including the per-pair extra latency), and the
// parameter set — so the replay loop does only integer arithmetic: no
// floating-point byte-cost math, no interface or function-valued calls,
// no protocol branches. A program's sends have only a handful of
// distinct cost tuples (one per message size, protocol and latency
// class), so a send carries an index into the program's cost table
// instead of the tuple.
type cop struct {
	// arg is the calc duration, a send's index into Program.costs, a
	// receive's posted size, or a segment reference's index into
	// Program.segs.
	arg  int64
	peer int32
	tag  int32 // segment reference: the instance's tag base
	req  int32 // segment reference: the instance's request-id base
	kind uint8 // cop kinds below
}

// cost is what a send of one size between one class of rank pair costs.
type cost struct {
	dur     int64 // eager send CPU o+(s-1)O | rendezvous o
	size    int64 // message bytes
	nicGap  int64 // eager send: NIC occupancy g+(s-1)G
	transit int64 // eager send: L+(s-1)G+xl | rendezvous send: RTS flight L+xl
}

// Compiled op kinds, ordered hottest-first.
const (
	cCalc uint8 = iota
	cEagerIsend
	cIrecv
	cWaitAll
	cEagerSend
	cRdvIsend
	cRdvSend
	cRecv
	cWait
	cSeg // segment reference: run Program.segs[arg] with (tag, req) added
	cBad // unexpanded collective: deliberate diagnostic deadlock
)

// Program is an expanded trace compiled against one Config: the
// per-rank compiled ops, the rank-to-node map and the network
// parameters. It is immutable once built, so any number of
// Simulators — one per goroutine — may run it at once; everything a run
// mutates lives in the Simulator. The trace is not retained.
//
// A rank's ops are its stream, code[r]. Where the rank runs a
// collective, the stream holds one segment reference instead of the
// collective's point-to-point schedule: the schedule is compiled once
// per rank into a segment, in canonical form (tag 0, request ids from
// 0), and every instance of it is a reference carrying the tag and
// request-id bases the run loop adds to the segment's ops as it
// dispatches them. A program compiled from an already flat trace has no
// segments and runs through the same loop.
//
// Config.ExtraLatency is consulted while runs are in flight (rendezvous
// handshakes), so it must be safe to call from several goroutines.
type Program struct {
	cfg   Config
	nodes int     // NIC timelines a run needs
	node  []int32 // rank -> node, so the hot path never divides
	code  [][]cop // per rank: the stream
	segs  [][]cop // compiled collective schedules, each entered from one rank's stream
	costs []cost  // send costs, deduplicated by value
	// Counted while lowering, so a Simulator is allocated at the size
	// its first run reaches instead of growing into it: rdvSends is the
	// number of rendezvous sends (a complete run registers exactly that
	// many rdvMsgs), slots[r] the most requests rank r ever has
	// outstanding at once (its slot table's high-water mark, and a bound
	// on its posted-receive list). Both count a segment once per
	// reference to it.
	rdvSends int
	slots    []int32
}

// Compile validates cfg and lowers the trace into a Program: a Builder
// fed every rank in turn. The trace must be collective-free (see
// collectives.Expand); it is read, never mutated, and may be released
// once Compile returns.
func Compile(tr *trace.Trace, cfg Config) (*Program, error) {
	b, err := NewBuilder(tr.NumRanks(), cfg)
	if err != nil {
		return nil, err
	}
	for r, ops := range tr.Ops {
		if err := b.AddRank(r, ops); err != nil {
			return nil, err
		}
	}
	return b.Program()
}

// Builder lowers a trace into a Program one rank at a time, so a caller
// producing ranks one by one keeps nothing but the compiled ops. Ranks
// are started in order from 0 and fed through Ops and Collective (the
// Builder is a collectives.Sink) or whole through AddRank; Program hands
// over the result once all are in.
type Builder struct {
	p    *Program // nil once handed over
	next int      // the rank StartRank must be given next
	// costIndex finds a cost tuple's place in p.costs.
	costIndex map[cost]int64
	// The rank being lowered: its stream so far; its segments' ops end
	// to end, with where each ends and what one run of it does to the
	// counts (all four buffers reused from rank to rank; schedule number
	// n is segment firstSeg+n); and its outstanding requests now and at
	// their peak (see effect).
	stream, segOps []cop
	segEnds        []int
	effects        []effect
	firstSeg       int
	live, peak     int64
}

// effect is what running a stretch of ops does to the two counts a
// Program keeps. Outstanding requests follow a run's slot table: a
// nonblocking op takes a slot, a Wait frees one (never below none), a
// WaitAll frees all, a blocking receive holds one while it waits. From
// live requests before the stretch there are max(live+shift, floor)
// after it, and the peak inside it is max(live+peakShift, peakFloor) —
// a form closed under appending an op, so a segment's effect is computed
// once and applied per reference.
type effect struct {
	rdvSends             int
	shift, floor         int64
	peakShift, peakFloor int64
}

// never stands for minus infinity in an effect: no count of live
// requests added to it reaches zero.
const never = math.MinInt64 / 2

// NewBuilder validates cfg and starts a Program of the given rank count.
func NewBuilder(ranks int, cfg Config) (*Builder, error) {
	if ranks < 1 {
		return nil, trace.ErrEmptyTrace
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if cfg.LocalNet != nil {
		if err := cfg.LocalNet.Validate(); err != nil {
			return nil, err
		}
	}
	rpn := cfg.RanksPerNode
	if rpn == 0 {
		rpn = 1
	}
	if rpn < 0 {
		return nil, fmt.Errorf("loggopsim: ranks per node must be positive, got %d", rpn)
	}
	p := &Program{
		cfg:   cfg,
		nodes: (ranks + rpn - 1) / rpn,
		node:  make([]int32, ranks),
		code:  make([][]cop, ranks),
		slots: make([]int32, ranks),
	}
	for r := range p.node {
		p.node[r] = int32(r / rpn)
	}
	return &Builder{p: p, costIndex: map[cost]int64{}}, nil
}

// StartRank begins rank r, finishing the rank before it. It fails if r
// is not the next rank in order.
func (b *Builder) StartRank(r int) error {
	p := b.p
	if p == nil {
		return fmt.Errorf("loggopsim: rank %d added to a finished builder", r)
	}
	if r != b.next {
		return fmt.Errorf("loggopsim: rank %d added out of order, want rank %d", r, b.next)
	}
	if r >= len(p.code) {
		return fmt.Errorf("loggopsim: rank %d added to a program of %d ranks", r, len(p.code))
	}
	b.finishRank()
	b.next++
	return nil
}

// finishRank moves the started rank's segments and stream, in one
// allocation of exactly their length, and its slot count into the
// program.
func (b *Builder) finishRank() {
	if b.next == 0 {
		return
	}
	p, r := b.p, b.next-1
	ops := append(append(make([]cop, 0, len(b.segOps)+len(b.stream)), b.segOps...), b.stream...)
	lo := 0
	for i, hi := range b.segEnds {
		p.segs[b.firstSeg+i] = ops[lo:hi:hi]
		lo = hi
	}
	p.code[r] = ops[lo:]
	p.slots[r] = int32(b.peak)
	if r == 0 {
		// Every rank runs the collectives rank 0 ran, so it will have as
		// many schedules.
		p.segs = slices.Grow(p.segs, len(p.segs)*(len(p.code)-1))
	}
	b.stream, b.segOps, b.segEnds, b.effects, b.firstSeg = b.stream[:0], b.segOps[:0], b.segEnds[:0], b.effects[:0], len(p.segs)
	b.live, b.peak = 0, 0
}

// AddRank lowers rank r's collective-free ops into compiled ops (see
// cop) of exactly their number. ops is read, never kept. It fails if r
// is not the next rank in order.
func (b *Builder) AddRank(r int, ops []trace.Op) error {
	if err := b.StartRank(r); err != nil {
		return err
	}
	b.Ops(ops)
	return nil
}

// Ops lowers a run of the started rank's collective-free ops onto the
// end of its stream. ops is read, never kept.
func (b *Builder) Ops(ops []trace.Op) {
	var fx effect
	b.stream, fx = b.lower(slices.Grow(b.stream, len(ops)), ops)
	b.apply(fx)
}

// Collective puts one instance of a collective on the end of the
// started rank's stream: a reference to the segment compiled from ops,
// the schedule in canonical form, the first time the rank meets schedule
// number sched (see collectives.Sink).
func (b *Builder) Collective(sched int, ops []trace.Op, tag, req int32) {
	seg := b.firstSeg + sched
	if seg == len(b.p.segs) {
		var fx effect
		b.segOps, fx = b.lower(slices.Grow(b.segOps, len(ops)), ops)
		b.segEnds, b.effects = append(b.segEnds, len(b.segOps)), append(b.effects, fx)
		b.p.segs = append(b.p.segs, nil) // cut from the rank's allocation by finishRank
	}
	b.stream = append(b.stream, cop{kind: cSeg, arg: int64(seg), tag: tag, req: req})
	b.apply(b.effects[sched])
}

// apply composes a stretch's effect onto the started rank's counts.
func (b *Builder) apply(fx effect) {
	b.p.rdvSends += fx.rdvSends
	b.peak = max(b.peak, b.live+fx.peakShift, fx.peakFloor)
	b.live = max(b.live+fx.shift, fx.floor)
}

// lower appends the compiled form of the started rank's ops to dst —
// the one lowering, for stream and segment alike — and returns it with
// the stretch's effect.
func (b *Builder) lower(dst []cop, ops []trace.Op) ([]cop, effect) {
	p, r := b.p, int32(b.next-1)
	fx := effect{peakShift: never}
	for i := range ops {
		op := &ops[i]
		c := cop{peer: op.Peer, tag: op.Tag, req: op.Req}
		switch op.Kind {
		case trace.OpCalc:
			c.kind, c.arg = cCalc, op.Dur
		case trace.OpSend, trace.OpIsend:
			np := p.pair(r, op.Peer)
			x := p.xl(r, op.Peer)
			k := cost{size: op.Size}
			if np.Eager(op.Size) {
				k.dur = np.SendCPU(op.Size)
				k.nicGap = np.NICGap(op.Size)
				k.transit = np.Transit(op.Size) + x
				c.kind = cEagerSend
				if op.Kind == trace.OpIsend {
					c.kind = cEagerIsend
				}
			} else {
				k.dur = np.O
				k.transit = np.L + x
				c.kind = cRdvSend
				if op.Kind == trace.OpIsend {
					c.kind = cRdvIsend
				}
				fx.rdvSends++
			}
			at, ok := b.costIndex[k]
			if !ok {
				at = int64(len(p.costs))
				p.costs = append(p.costs, k)
				b.costIndex[k] = at
			}
			c.arg = at
		case trace.OpRecv:
			c.kind, c.arg = cRecv, op.Size
			fx.peakShift, fx.peakFloor = max(fx.peakShift, fx.shift+1), max(fx.peakFloor, fx.floor+1)
		case trace.OpIrecv:
			c.kind, c.arg = cIrecv, op.Size
		case trace.OpWait:
			c.kind = cWait
			fx.shift, fx.floor = fx.shift-1, max(fx.floor-1, 0)
		case trace.OpWaitAll:
			c.kind = cWaitAll
			fx.shift, fx.floor = never, 0
		default:
			c.kind = cBad
		}
		if op.Kind == trace.OpIsend || op.Kind == trace.OpIrecv {
			fx.shift, fx.floor = fx.shift+1, fx.floor+1
			fx.peakShift, fx.peakFloor = max(fx.peakShift, fx.shift), max(fx.peakFloor, fx.floor)
		}
		dst = append(dst, c)
	}
	return dst, fx
}

// Program returns the finished program; the builder is spent. It fails
// if a rank is still missing.
func (b *Builder) Program() (*Program, error) {
	p := b.p
	if p == nil {
		return nil, fmt.Errorf("loggopsim: builder already finished")
	}
	if b.next != len(p.code) {
		return nil, fmt.Errorf("loggopsim: program has %d of %d ranks", b.next, len(p.code))
	}
	b.finishRank()
	*b = Builder{}
	return p, nil
}

// Ranks returns the number of ranks the program was compiled for.
func (p *Program) Ranks() int { return len(p.code) }

// SizeBytes is the program's resident size: the compiled ops of every
// stream and segment and the cost table, plus a slice header, a
// node-map entry and a slot count per rank and a slice header per
// segment.
func (p *Program) SizeBytes() int64 {
	const header = int64(unsafe.Sizeof([]cop(nil)))
	ops := 0
	for _, cs := range p.code {
		ops += len(cs)
	}
	for _, cs := range p.segs {
		ops += len(cs)
	}
	return int64(ops)*int64(unsafe.Sizeof(cop{})) +
		int64(len(p.code))*(header+2*int64(unsafe.Sizeof(int32(0)))) +
		int64(cap(p.segs))*header +
		int64(cap(p.costs))*int64(unsafe.Sizeof(cost{}))
}

// pair returns the parameter set for a message between two ranks:
// LocalNet for co-located ranks when configured, Net otherwise.
func (p *Program) pair(a, b int32) *netmodel.Params {
	if p.cfg.LocalNet != nil && p.node[a] == p.node[b] {
		return p.cfg.LocalNet
	}
	return &p.cfg.Net
}

// xl returns the configured extra latency between two ranks, zero when
// none is configured.
func (p *Program) xl(src, dst int32) int64 {
	if p.cfg.ExtraLatency == nil {
		return 0
	}
	return p.cfg.ExtraLatency(src, dst)
}
