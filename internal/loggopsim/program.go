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
// parameters. It is immutable after Compile, so any number of
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
}

// Compile validates cfg and lowers the trace into a Program. The trace
// must be collective-free (see collectives.Expand); it is read, never
// mutated, and may be released once Compile returns.
func Compile(tr *trace.Trace, cfg Config) (*Program, error) {
	n := tr.NumRanks()
	if n == 0 {
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
		nodes: (n + rpn - 1) / rpn,
		node:  make([]int32, n),
		cops:  make([][]cop, n),
	}
	for r := range p.node {
		p.node[r] = int32(r / rpn)
	}
	for r := range p.cops {
		p.cops[r] = p.compile(int32(r), tr.Ops[r])
	}
	return p, nil
}

// compile lowers one rank's trace into compiled ops (see cop).
func (p *Program) compile(r int32, ops []trace.Op) []cop {
	cs := make([]cop, len(ops))
	for i := range ops {
		op := &ops[i]
		c := &cs[i]
		c.peer, c.tag, c.req, c.size = op.Peer, op.Tag, op.Req, op.Size
		switch op.Kind {
		case trace.OpCalc:
			c.kind, c.dur = cCalc, op.Dur
		case trace.OpSend, trace.OpIsend:
			np := p.pair(r, op.Peer)
			x := p.xl(r, op.Peer)
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
			}
		case trace.OpRecv:
			c.kind = cRecv
		case trace.OpIrecv:
			c.kind = cIrecv
		case trace.OpWait:
			c.kind = cWait
		case trace.OpWaitAll:
			c.kind = cWaitAll
		default:
			c.kind = cBad
		}
	}
	return cs
}

// Ranks returns the number of ranks the program was compiled for.
func (p *Program) Ranks() int { return len(p.cops) }

// SizeBytes is the program's resident size: the compiled ops, plus a
// slice header and a node-map entry per rank.
func (p *Program) SizeBytes() int64 {
	const perRank = int64(unsafe.Sizeof([]cop(nil)) + unsafe.Sizeof(int32(0)))
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
