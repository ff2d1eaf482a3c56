package loggopsim

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/trace"
)

// cop is a compiled trace operation, 24 bytes. Lowering resolves
// everything that does not depend on simulated time — the
// eager/rendezvous protocol decision and the LogGOPS send CPU / NIC gap
// / transit costs — so the replay loop does only integer arithmetic: no
// floating-point byte-cost math, no interface calls, no protocol
// branches. A program's sends have only a handful of distinct cost
// tuples (one per message size and protocol), so a send carries an
// index into the program's cost table instead of the tuple.
//
// Ops are shared between ranks, so what differs from rank to rank goes
// through the rank's tables (see Program): a calc names its duration, a
// message its peer and a segment reference its segment by their index
// in the rank's table.
type cop struct {
	// arg is a calc's index into the rank's durations, a send's index
	// into Program.costs, a receive's posted size, or a segment
	// reference's index into the rank's segment table.
	arg  int64
	peer int32 // index into the rank's peers
	tag  int32 // segment reference: the instance's tag base
	req  int32 // segment reference: the instance's request-id base
	kind uint8 // cop kinds below
}

// cost is what a send of one size costs.
type cost struct {
	dur     int64 // eager send CPU o+(s-1)O | rendezvous o
	size    int64 // message bytes
	nicGap  int64 // eager send: NIC occupancy g+(s-1)G
	transit int64 // eager send: L+(s-1)G | rendezvous send: RTS flight L
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
	cSeg // segment reference: run the segment the rank's table names at arg, with (tag, req) added
	cBad // unexpanded collective, or a message to or from no rank of the program: deliberate diagnostic deadlock
)

// Program is an expanded trace compiled against one Config: the
// compiled ops, the rank-to-node map and the network parameters. It is
// immutable once built, so any number of Simulators — one per
// goroutine — may run it at once; everything a run mutates lives in the
// Simulator. The trace is not retained.
//
// A rank's ops are its stream. Where the rank runs a collective, the
// stream holds one segment reference instead of the collective's
// point-to-point schedule: the schedule is compiled once per rank into
// a segment, in canonical form (tag 0, request ids from 0), and every
// instance of it is a reference carrying the tag and request-id bases
// the run loop adds to the segment's ops as it dispatches them. A
// point-to-point exchange the rank repeats op for op — a halo exchange,
// every iteration — becomes a segment the same way, and every
// repetition, the first included, is a reference to it with bases 0
// (see Builder.Ops).
//
// The ranks of a bulk-synchronous code run the same ops with other
// durations and other partners, so a rank keeps only three tables —
// its calc durations in order, its peers in order of first appearance,
// its segments in order of compilation — and an op names an entry of
// the rank's table: a calc its duration, a message its peer, a
// reference its segment. Streams and segments that agree op for op
// under that numbering, whichever ranks run them, are stored once.
// Each table is a window of one slab.
type Program struct {
	cfg   Config
	nodes int     // NIC timelines a run needs
	node  []int32 // rank -> node, so the hot path never divides
	// streams and segs hold the compiled ops, each distinct stream and
	// segment once; costs the send costs, deduplicated by value.
	streams, segs [][]cop
	costs         []cost
	// rank[r] is rank r's stream and where its tables start in the
	// three slabs, rank[r+1] where they end.
	rank   []rankCode
	durs   []int64
	peers  []int32 // ranks
	segTab []int32 // indices into segs
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

// rankCode locates one rank's code: its stream's index in
// Program.streams and where its durations, peers and segment table
// start in their slabs.
type rankCode struct {
	stream, dur, peer, seg int32
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
// producing ranks one by one keeps nothing but the compiled ops and the
// rank's tables. Ranks are started in order from 0 and fed through Ops
// and Collective (the Builder is a collectives.Sink) or whole through
// AddRank; Program hands over the result once all are in.
type Builder struct {
	p    *Program // nil once handed over
	next int      // the rank StartRank must be given next
	// costIndex finds a cost tuple's place in p.costs; streamAt and
	// segAt find the first of p's streams and segments with a given hash
	// (see intern).
	costIndex       map[cost]int64
	streamAt, segAt map[uint64]int32
	// peerAt[q] is one more than rank q's index in the started rank's
	// peers, 0 while the rank has not met q.
	peerAt []int32
	// The rank being lowered: its stream so far; what one run of each of
	// its segments does to the counts, by segment number in the rank;
	// the segment number each of its collective schedules was compiled
	// to; its outstanding requests and rendezvous sends, each now and at
	// its peak (see effect); and the request ids of the rendezvous sends
	// outstanding in its stream and in the segment being lowered, so a
	// Wait naming one releases it. A segment and the finished stream are
	// lowered into segOps and skel before they are looked up. Every
	// buffer is reused from rank to rank.
	stream, segOps, skel []cop
	effects              []effect
	scheds               []int
	slots, rdv           tally
	streamRdv            []int32
	segRdv               []int32
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
		rank:  make([]rankCode, ranks+1),
		slots: make([]int32, ranks),
	}
	for r := range p.node {
		p.node[r] = int32(r / rpn)
	}
	return &Builder{p: p, costIndex: map[cost]int64{}, streamAt: map[uint64]int32{}, segAt: map[uint64]int32{},
		peerAt: make([]int32, ranks), exchangeAt: map[uint64]int{}}, nil
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
	if r >= p.Ranks() {
		return fmt.Errorf("loggopsim: rank %d added to a program of %d ranks", r, p.Ranks())
	}
	b.finishRank()
	b.next++
	return nil
}

// finishRank looks the started rank's stream up among the program's
// (see intern), the first occurrence of every exchange met again
// becoming a reference on the way, and moves its counts and where its
// tables end into the program.
func (b *Builder) finishRank() {
	if b.next == 0 {
		return
	}
	p, r := b.p, b.next-1
	skel, at := b.skel[:0], 0 // b.stream[:at] is in skel
	for _, e := range b.exchanges {
		if e.seg >= 0 {
			skel = append(append(skel, b.stream[at:e.first]...), cop{kind: cSeg, arg: int64(e.seg)})
			at = e.first + e.hi - e.lo
		}
	}
	b.skel = append(skel, b.stream[at:]...)
	p.rank[r].stream = intern(b.streamAt, &p.streams, b.skel)
	p.rank[r+1] = rankCode{dur: int32(len(p.durs)), peer: int32(len(p.peers)), seg: int32(len(p.segTab))}
	p.slots[r] = int32(b.slots.peak)
	p.handshakes += int(b.rdv.peak)
	for _, q := range p.peers[p.rank[r].peer:] {
		b.peerAt[q] = 0
	}
	if r == 0 {
		// Every rank runs the collectives rank 0 ran and, as a rule, as
		// many calcs, partners and exchanges.
		n := p.Ranks()
		p.durs, p.peers, p.segTab = presize(p.durs, n), presize(p.peers, n), presize(p.segTab, n)
	}
	b.stream, b.effects, b.scheds = b.stream[:0], b.effects[:0], b.scheds[:0]
	b.slots, b.rdv, b.streamRdv = tally{}, tally{}, b.streamRdv[:0]
	clear(b.exchangeAt)
	b.exchanges, b.exchangeOps = b.exchanges[:0], b.exchangeOps[:0]
}

// presize returns a copy of rank 0's table s with room for n ranks'
// tables as long, at exactly that capacity: SizeBytes counts it.
func presize[T any](s []T, n int) []T {
	return append(make([]T, 0, len(s)*n), s...)
}

// intern returns the index in *list of ops: of an equal entry, found
// through at, which maps a hash to the first entry with that hash, or
// of a copy it appends. It allocates nothing when ops are there
// already; ops whose hash an unequal entry took first are appended
// unshared.
func intern(at map[uint64]int32, list *[][]cop, ops []cop) int32 {
	h := hashCops(ops)
	i, ok := at[h]
	if ok && slices.Equal((*list)[i], ops) {
		return i
	}
	*list = append(*list, slices.Clone(ops))
	i = int32(len(*list) - 1)
	if !ok {
		at[h] = i
	}
	return i
}

// AddRank lowers rank r's collective-free ops into compiled ops (see
// cop). ops is read, never kept. It fails if r is not the next rank in
// order.
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

// mix folds the word w into the hash h.
func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// hashOps hashes the ops so that equal ops hash equal. It leaves out
// the calc duration: an exchange holds no calc.
func hashOps(ops []trace.Op) uint64 {
	h := uint64(len(ops))
	for i := range ops {
		op := &ops[i]
		h = mix(mix(mix(h, uint64(op.Kind)<<32|uint64(uint32(op.Peer))), uint64(uint32(op.Tag))<<32|uint64(uint32(op.Req))), uint64(op.Size))
	}
	return h
}

// hashCops hashes compiled ops so that equal ops hash equal.
func hashCops(ops []cop) uint64 {
	h := uint64(len(ops))
	for i := range ops {
		op := &ops[i]
		h = mix(mix(mix(h, uint64(op.arg)), uint64(uint32(op.peer))<<32|uint64(uint32(op.tag))), uint64(uint32(op.req))<<8|uint64(op.kind))
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

// segment compiles ops, in a frame with nothing outstanding, into a
// segment of the program — the one there already if a rank compiled the
// same ops before (see intern) — and returns its number in the started
// rank.
func (b *Builder) segment(ops []trace.Op) int {
	var fx effect
	b.segRdv = b.segRdv[:0]
	b.segOps, fx = b.lower(b.segOps[:0], ops, &b.segRdv)
	p := b.p
	p.segTab = append(p.segTab, intern(b.segAt, &p.segs, b.segOps))
	b.effects = append(b.effects, fx)
	return len(b.effects) - 1
}

// ref puts a reference to the started rank's segment seg, run with the
// given bases, on the end of its stream.
func (b *Builder) ref(seg int, tag, req int32) {
	b.stream = append(b.stream, cop{kind: cSeg, arg: int64(seg), tag: tag, req: req})
	b.apply(b.effects[seg])
}

// apply composes a stretch's effect onto the started rank's counts.
func (b *Builder) apply(fx effect) {
	b.slots.apply(fx.slots)
	b.rdv.apply(fx.rdv)
}

// peer returns rank q's index in the started rank's peers, adding q on
// its first appearance; ok is false for no rank of the program.
func (b *Builder) peer(q int32) (local int32, ok bool) {
	if q < 0 || int(q) >= len(b.peerAt) {
		return 0, false
	}
	if b.peerAt[q] == 0 {
		p := b.p
		p.peers = append(p.peers, q)
		b.peerAt[q] = int32(len(p.peers)) - p.rank[b.next-1].peer
	}
	return b.peerAt[q] - 1, true
}

// lower appends the compiled form of the started rank's ops to dst —
// the one lowering, for stream and segment alike — and returns it with
// the stretch's effect; the rank's durations and peers grow as it meets
// calcs and partners. rdvReqs holds the request ids of the frame's
// outstanding nonblocking rendezvous sends, kept up to date.
func (b *Builder) lower(dst []cop, ops []trace.Op, rdvReqs *[]int32) ([]cop, effect) {
	p, r := b.p, int32(b.next-1)
	np := &p.cfg.Net
	fx := effect{slots: count{peakShift: never}, rdv: count{peakShift: never}}
	for i := range ops {
		op := &ops[i]
		c := cop{peer: op.Peer, tag: op.Tag, req: op.Req}
		var ok bool
		switch op.Kind {
		case trace.OpCalc:
			c.kind, c.arg = cCalc, int64(len(p.durs)-int(p.rank[r].dur))
			p.durs = append(p.durs, op.Dur)
		case trace.OpSend, trace.OpIsend:
			if c.peer, ok = b.peer(op.Peer); !ok {
				c.kind = cBad
				break
			}
			k := cost{size: op.Size}
			if np.Eager(op.Size) {
				k.dur = np.SendCPU(op.Size)
				k.nicGap = np.NICGap(op.Size)
				k.transit = np.Transit(op.Size)
				c.kind = cEagerSend
				if op.Kind == trace.OpIsend {
					c.kind = cEagerIsend
				}
			} else {
				k.dur = np.O
				k.transit = np.L
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
		case trace.OpRecv, trace.OpIrecv:
			if c.peer, ok = b.peer(op.Peer); !ok {
				c.kind = cBad
				break
			}
			c.kind, c.arg = cIrecv, op.Size
			if op.Kind == trace.OpRecv {
				c.kind = cRecv
				fx.slots.hold()
			}
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
		if c.kind == cEagerIsend || c.kind == cRdvIsend || c.kind == cIrecv {
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
	if b.next != p.Ranks() {
		return nil, fmt.Errorf("loggopsim: program has %d of %d ranks", b.next, p.Ranks())
	}
	b.finishRank()
	*b = Builder{}
	return p, nil
}

// Ranks returns the number of ranks the program was compiled for.
func (p *Program) Ranks() int { return len(p.node) }

// stream returns rank r's stream.
func (p *Program) stream(r int32) []cop { return p.streams[p.rank[r].stream] }

// seg returns the segment rank r's table names at i.
func (p *Program) seg(r int32, i int64) int32 { return p.segTab[p.rank[r].seg+int32(i)] }

// SizeBytes is the program's resident size: the compiled ops of every
// stream and segment with a slice header each, the cost table, the
// three per-rank slabs, and a location, a node-map entry and a slot
// count per rank.
func (p *Program) SizeBytes() int64 {
	const header = int64(unsafe.Sizeof([]cop(nil)))
	ops := 0
	for _, cs := range p.streams {
		ops += len(cs)
	}
	for _, cs := range p.segs {
		ops += len(cs)
	}
	return int64(ops)*int64(unsafe.Sizeof(cop{})) +
		int64(cap(p.streams)+cap(p.segs))*header +
		int64(cap(p.costs))*int64(unsafe.Sizeof(cost{})) +
		int64(cap(p.durs))*8 + int64(cap(p.peers)+cap(p.segTab))*4 +
		int64(len(p.rank))*int64(unsafe.Sizeof(rankCode{})) +
		int64(len(p.node)+len(p.slots))*4
}
