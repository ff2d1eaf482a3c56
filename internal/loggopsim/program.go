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
// dispatches them. A point-to-point exchange the rank repeats op for op
// — a halo exchange, every iteration — is compiled once per rank into
// a segment the same way, and every repetition, the first included, is
// a reference to it with bases 0 (see Builder.Ops).
//
// Config.ExtraLatency is consulted while runs are in flight (rendezvous
// handshakes), so it must be safe to call from several goroutines.
type Program struct {
	cfg   Config
	nodes int     // NIC timelines a run needs
	node  []int32 // rank -> node, so the hot path never divides
	code  [][]cop // per rank: the stream
	segs  [][]cop // compiled schedules and exchanges, each entered from one rank's stream
	costs []cost  // send costs, deduplicated by value
	// Counted while lowering, so a Simulator is allocated at the size
	// its first run reaches instead of growing into it: handshakes sums
	// over ranks the most rendezvous sends a rank ever has outstanding at
	// once (the rendezvous handshakes a run has in flight at its peak, on
	// every workload), slots[r] the most requests rank r ever has
	// outstanding at once (its slot table's high-water mark, and a bound
	// on its posted-receive list). Both count a segment once per
	// reference to it.
	handshakes int
	slots      []int32
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
	// counts (segment number n is firstSeg+n in the program); the
	// segment each of its collective schedules was compiled to; its
	// outstanding requests and rendezvous sends, each now and at its
	// peak (see effect); and the request ids of the rendezvous sends
	// outstanding in its stream and in the segment being lowered, so a
	// Wait naming one releases it. Every buffer is reused from rank to
	// rank.
	stream, segOps []cop
	segEnds        []int
	effects        []effect
	scheds         []int
	firstSeg       int
	slots, rdv     tally
	streamRdv      []int32
	segRdv         []int32
	// The exchanges the rank has met (see Ops): found by the hash of
	// their ops, told apart by the ops themselves, kept end to end in
	// exchangeOps.
	exchangeAt  map[uint64]int
	exchanges   []exchange
	exchangeOps []trace.Op
}

// exchange is a point-to-point run the started rank has met: its ops,
// exchangeOps[lo:hi]; where on the stream its first occurrence starts;
// and the segment it was compiled to once met again, -1 before.
type exchange struct{ lo, hi, first, seg int }

// effect is what running a stretch of ops does to the two counts a
// Program keeps. Outstanding requests follow a run's slot table: a
// nonblocking op takes a slot, a Wait frees one (never below none), a
// WaitAll frees all, a blocking receive holds one while it waits.
// Outstanding rendezvous sends are the nonblocking ones a Wait naming
// them or a WaitAll has not yet released, and a blocking one while it
// waits for its clear-to-send.
type effect struct {
	slots, rdv count
}

// count is a stretch's effect on one count of live things: from live
// before the stretch there are max(live+shift, floor) after it, and the
// peak inside it is max(live+peakShift, peakFloor) — a form closed under
// appending an op, so a segment's effect is computed once and applied
// per reference.
type count struct {
	shift, floor         int64
	peakShift, peakFloor int64
}

// never stands for minus infinity in a count: no number of live things
// added to it reaches zero.
const never = math.MinInt64 / 2

func (c *count) take() {
	c.shift, c.floor = c.shift+1, c.floor+1
	c.peakShift, c.peakFloor = max(c.peakShift, c.shift), max(c.peakFloor, c.floor)
}

func (c *count) hold() {
	c.peakShift, c.peakFloor = max(c.peakShift, c.shift+1), max(c.peakFloor, c.floor+1)
}

func (c *count) release() { c.shift, c.floor = c.shift-1, max(c.floor-1, 0) }

func (c *count) releaseAll() { c.shift, c.floor = never, 0 }

// tally is one of the started rank's counts, now and at its peak.
type tally struct{ live, peak int64 }

func (t *tally) apply(c count) {
	t.peak = max(t.peak, t.live+c.peakShift, c.peakFloor)
	t.live = max(t.live+c.shift, c.floor)
}

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
	return &Builder{p: p, costIndex: map[cost]int64{}, exchangeAt: map[uint64]int{}}, nil
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
// program. The first occurrence of every exchange met again becomes a
// reference on the way.
func (b *Builder) finishRank() {
	if b.next == 0 {
		return
	}
	p, r := b.p, b.next-1
	n := len(b.segOps) + len(b.stream)
	for _, e := range b.exchanges {
		if e.seg >= 0 {
			n -= e.hi - e.lo - 1
		}
	}
	ops := append(make([]cop, 0, n), b.segOps...)
	at := 0 // b.stream[:at] is in ops
	for _, e := range b.exchanges {
		if e.seg >= 0 {
			ops = append(append(ops, b.stream[at:e.first]...), cop{kind: cSeg, arg: int64(b.firstSeg + e.seg)})
			at = e.first + e.hi - e.lo
		}
	}
	ops = append(ops, b.stream[at:]...)
	lo := 0
	for i, hi := range b.segEnds {
		p.segs[b.firstSeg+i] = ops[lo:hi:hi]
		lo = hi
	}
	p.code[r] = ops[lo:]
	p.slots[r] = int32(b.slots.peak)
	p.handshakes += int(b.rdv.peak)
	if r == 0 {
		// Every rank runs the collectives rank 0 ran, so it will have as
		// many schedules, and as a rule as many exchanges.
		p.segs = slices.Grow(p.segs, len(p.segs)*(len(p.code)-1))
	}
	b.stream, b.segOps, b.segEnds, b.effects, b.scheds, b.firstSeg = b.stream[:0], b.segOps[:0], b.segEnds[:0], b.effects[:0], b.scheds[:0], len(p.segs)
	b.slots, b.rdv, b.streamRdv = tally{}, tally{}, b.streamRdv[:0]
	clear(b.exchangeAt)
	b.exchanges, b.exchangeOps = b.exchanges[:0], b.exchangeOps[:0]
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
//
// An exchange — the ops after a calc, a WaitAll or the start of ops up
// to and including the next WaitAll, none of them a calc — goes on
// inline the first time the rank meets it. Met again, it is compiled
// once into a segment, and that repetition, every later one and, when
// the rank is finished, the first are references to the segment with
// bases 0; an exchange met once stays inline. A segment starts with
// nothing outstanding, so where a Wait of the exchange could release a
// rendezvous send from before it, the exchange stays inline: there its
// counts depend on what came before. After the WaitAll nothing is
// outstanding either way.
func (b *Builder) Ops(ops []trace.Op) {
	b.stream = slices.Grow(b.stream, len(ops))
	done, start := 0, 0 // ops[:done] are on the stream; ops[start:i] hold no calc or WaitAll
	for i := range ops {
		switch ops[i].Kind {
		case trace.OpCalc:
			start = i + 1
		case trace.OpWaitAll:
			if i > start { // a lone WaitAll is no longer than a reference
				b.inline(ops[done:start])
				done = start
				if b.share(ops[start : i+1]) {
					done = i + 1
				}
			}
			start = i + 1
		}
	}
	b.inline(ops[done:])
}

// inline lowers ops onto the end of the started rank's stream.
func (b *Builder) inline(ops []trace.Op) {
	var fx effect
	b.stream, fx = b.lower(b.stream, ops, &b.streamRdv)
	b.apply(fx)
}

// share puts the exchange x on the end of the started rank's stream as
// a segment reference if the rank has met it before, and reports
// whether it did; the first time, it records where the exchange is
// about to be lowered. It allocates nothing once the buffers have grown
// to the rank's exchanges: the lookup hashes the ops and compares them
// with the recorded copy. An exchange whose hash an unequal one took
// first stays inline.
func (b *Builder) share(x []trace.Op) bool {
	if !b.shareable(x) {
		return false
	}
	h := hashOps(x)
	at, ok := b.exchangeAt[h]
	if !ok {
		b.exchangeAt[h] = len(b.exchanges)
		lo := len(b.exchangeOps)
		b.exchanges = append(b.exchanges, exchange{lo: lo, hi: lo + len(x), first: len(b.stream), seg: -1})
		b.exchangeOps = append(b.exchangeOps, x...)
		return false
	}
	e := &b.exchanges[at]
	if !slices.Equal(b.exchangeOps[e.lo:e.hi], x) {
		return false
	}
	if e.seg < 0 {
		e.seg = b.segment(x)
	}
	b.ref(e.seg, 0, 0)
	b.streamRdv = b.streamRdv[:0]
	return true
}

// shareable reports whether exchange x has the same effect on the
// counts here on the stream as in a segment of its own: whether none of
// its Waits names a rendezvous send outstanding on the stream.
func (b *Builder) shareable(x []trace.Op) bool {
	if len(b.streamRdv) == 0 {
		return true
	}
	for i := range x {
		if x[i].Kind == trace.OpWait && slices.Contains(b.streamRdv, x[i].Req) {
			return false
		}
	}
	return true
}

// hashOps hashes the ops so that equal ops hash equal. It leaves out
// the calc duration: an exchange holds no calc.
func hashOps(ops []trace.Op) uint64 {
	h := uint64(len(ops))
	for i := range ops {
		op := &ops[i]
		for _, w := range [3]uint64{uint64(op.Kind)<<32 | uint64(uint32(op.Peer)), uint64(uint32(op.Tag))<<32 | uint64(uint32(op.Req)), uint64(op.Size)} {
			h = (h ^ w) * 0x9e3779b97f4a7c15
			h ^= h >> 29
		}
	}
	return h
}

// Collective puts one instance of a collective on the end of the
// started rank's stream: a reference to the segment compiled from ops,
// the schedule in canonical form, the first time the rank meets schedule
// number sched (see collectives.Sink).
func (b *Builder) Collective(sched int, ops []trace.Op, tag, req int32) {
	if sched == len(b.scheds) {
		b.scheds = append(b.scheds, b.segment(ops))
	}
	b.ref(b.scheds[sched], tag, req)
}

// segment compiles ops, in a frame with nothing outstanding, into the
// started rank's next segment and returns its number in the rank.
func (b *Builder) segment(ops []trace.Op) int {
	var fx effect
	b.segRdv = b.segRdv[:0]
	b.segOps, fx = b.lower(slices.Grow(b.segOps, len(ops)), ops, &b.segRdv)
	b.segEnds, b.effects = append(b.segEnds, len(b.segOps)), append(b.effects, fx)
	b.p.segs = append(b.p.segs, nil) // cut from the rank's allocation by finishRank
	return len(b.segEnds) - 1
}

// ref puts a reference to the started rank's segment seg, run with the
// given bases, on the end of its stream.
func (b *Builder) ref(seg int, tag, req int32) {
	b.stream = append(b.stream, cop{kind: cSeg, arg: int64(b.firstSeg + seg), tag: tag, req: req})
	b.apply(b.effects[seg])
}

// apply composes a stretch's effect onto the started rank's counts.
func (b *Builder) apply(fx effect) {
	b.slots.apply(fx.slots)
	b.rdv.apply(fx.rdv)
}

// lower appends the compiled form of the started rank's ops to dst —
// the one lowering, for stream and segment alike — and returns it with
// the stretch's effect. rdvReqs holds the request ids of the frame's
// outstanding nonblocking rendezvous sends, kept up to date.
func (b *Builder) lower(dst []cop, ops []trace.Op, rdvReqs *[]int32) ([]cop, effect) {
	p, r := b.p, int32(b.next-1)
	fx := effect{slots: count{peakShift: never}, rdv: count{peakShift: never}}
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
					fx.rdv.take()
					*rdvReqs = append(*rdvReqs, op.Req)
				} else {
					fx.rdv.hold()
				}
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
			fx.slots.hold()
		case trace.OpIrecv:
			c.kind, c.arg = cIrecv, op.Size
		case trace.OpWait:
			c.kind = cWait
			fx.slots.release()
			if k := slices.Index(*rdvReqs, op.Req); k >= 0 {
				*rdvReqs = slices.Delete(*rdvReqs, k, k+1)
				fx.rdv.release()
			}
		case trace.OpWaitAll:
			c.kind = cWaitAll
			fx.slots.releaseAll()
			fx.rdv.releaseAll()
			*rdvReqs = (*rdvReqs)[:0]
		default:
			c.kind = cBad
		}
		if op.Kind == trace.OpIsend || op.Kind == trace.OpIrecv {
			fx.slots.take()
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
