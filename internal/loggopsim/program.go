package loggopsim

import (
	"fmt"
	"unsafe"

	"repro/internal/netmodel"
	"repro/internal/trace"
)

// cop is a compiled trace operation. Compile resolves everything that
// does not depend on simulated time — the eager/rendezvous protocol
// decision, the LogGOPS send CPU / NIC gap / transit costs (including
// the per-pair extra latency), and the parameter set — so the replay
// loop does only integer arithmetic: no floating-point byte-cost math,
// no interface or function-valued calls, no protocol branches.
type cop struct {
	dur     int64 // calc duration | eager send CPU o+(s-1)O | rendezvous o
	size    int64 // message bytes
	nicGap  int64 // eager send: NIC occupancy g+(s-1)G
	transit int64 // eager send: L+(s-1)G+xl | rendezvous send: RTS flight L+xl
	peer    int32
	tag     int32
	req     int32
	kind    uint8 // cop kinds below
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
	cBad // unexpanded collective: deliberate diagnostic deadlock
)

// Program is an expanded trace compiled against one Config: the
// per-rank compiled ops, the rank-to-node map and the network
// parameters. It is immutable once built, so any number of
// Simulators — one per goroutine — may run it at once; everything a run
// mutates lives in the Simulator. The trace is not retained.
//
// Config.ExtraLatency is consulted while runs are in flight (rendezvous
// handshakes), so it must be safe to call from several goroutines.
type Program struct {
	cfg   Config
	nodes int     // NIC timelines a run needs
	node  []int32 // rank -> node, so the hot path never divides
	cops  [][]cop // per rank
	// Counted while lowering, so a Simulator is allocated at the size
	// its first run reaches instead of growing into it: rdvSends is the
	// number of rendezvous sends (a complete run registers exactly that
	// many rdvMsgs), slots[r] the most requests rank r ever has
	// outstanding at once (its slot table's high-water mark, and a bound
	// on its posted-receive list).
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
// are added in order from 0; Program hands over the result once all
// are in.
type Builder struct {
	p    *Program // nil once handed over
	next int      // the rank AddRank must be given next
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
		cops:  make([][]cop, ranks),
		slots: make([]int32, ranks),
	}
	for r := range p.node {
		p.node[r] = int32(r / rpn)
	}
	return &Builder{p: p}, nil
}

// AddRank lowers rank r's collective-free ops into compiled ops (see
// cop) of exactly their number. ops is read, never kept. It fails if r
// is not the next rank in order.
func (b *Builder) AddRank(r int, ops []trace.Op) error {
	p := b.p
	if p == nil {
		return fmt.Errorf("loggopsim: rank %d added to a finished builder", r)
	}
	if r != b.next {
		return fmt.Errorf("loggopsim: rank %d added out of order, want rank %d", r, b.next)
	}
	if r >= len(p.cops) {
		return fmt.Errorf("loggopsim: rank %d added to a program of %d ranks", r, len(p.cops))
	}
	b.next++
	cs := make([]cop, len(ops))
	// live follows the rank's outstanding requests the way a run's slot
	// table does: a nonblocking op takes a slot, a Wait frees one, a
	// WaitAll frees all, a blocking receive holds one while it waits.
	var live, peak int32
	for i := range ops {
		op := &ops[i]
		c := &cs[i]
		c.peer, c.tag, c.req, c.size = op.Peer, op.Tag, op.Req, op.Size
		switch op.Kind {
		case trace.OpCalc:
			c.kind, c.dur = cCalc, op.Dur
		case trace.OpSend, trace.OpIsend:
			np := p.pair(int32(r), op.Peer)
			x := p.xl(int32(r), op.Peer)
			if np.Eager(op.Size) {
				c.dur = np.SendCPU(op.Size)
				c.nicGap = np.NICGap(op.Size)
				c.transit = np.Transit(op.Size) + x
				c.kind = cEagerSend
				if op.Kind == trace.OpIsend {
					c.kind = cEagerIsend
				}
			} else {
				c.dur = np.O
				c.transit = np.L + x
				c.kind = cRdvSend
				if op.Kind == trace.OpIsend {
					c.kind = cRdvIsend
				}
				p.rdvSends++
			}
		case trace.OpRecv:
			c.kind = cRecv
			peak = max(peak, live+1)
		case trace.OpIrecv:
			c.kind = cIrecv
		case trace.OpWait:
			c.kind = cWait
			live = max(live-1, 0)
		case trace.OpWaitAll:
			c.kind = cWaitAll
			live = 0
		default:
			c.kind = cBad
		}
		if op.Kind == trace.OpIsend || op.Kind == trace.OpIrecv {
			live++
			peak = max(peak, live)
		}
	}
	p.cops[r] = cs
	p.slots[r] = peak
	return nil
}

// Program returns the finished program; the builder is spent. It fails
// if a rank is still missing.
func (b *Builder) Program() (*Program, error) {
	p := b.p
	if p == nil {
		return nil, fmt.Errorf("loggopsim: builder already finished")
	}
	if b.next != len(p.cops) {
		return nil, fmt.Errorf("loggopsim: program has %d of %d ranks", b.next, len(p.cops))
	}
	b.p = nil
	return p, nil
}

// Ranks returns the number of ranks the program was compiled for.
func (p *Program) Ranks() int { return len(p.cops) }

// SizeBytes is the program's resident size: the compiled ops, plus a
// slice header, a node-map entry and a slot count per rank.
func (p *Program) SizeBytes() int64 {
	const perRank = int64(unsafe.Sizeof([]cop(nil)) + 2*unsafe.Sizeof(int32(0)))
	size := int64(len(p.cops)) * perRank
	for _, cs := range p.cops {
		size += int64(len(cs)) * int64(unsafe.Sizeof(cop{}))
	}
	return size
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
