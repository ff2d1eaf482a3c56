package faultmodel

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/rng"
)

// Stream split identifiers under a node's 64-bit key. Every per-node
// random quantity lives on its own splitmix64-derived stream, so modes
// never share state and adding a mode never perturbs another mode's
// draws.
const (
	// streamSkew carries the node's lognormal rate multiplier.
	streamSkew = uint64(0)
	// streamGapBase + i carries mode i's inter-arrival draws.
	streamGapBase = uint64(1)
	// streamAddrBase + i carries mode i's footprint address draws
	// (Generator only), disjoint from every gap stream.
	streamAddrBase = uint64(1) << 32
)

// modeState is one mode's renewal state on one node.
type modeState struct {
	src *rng.Source
	// next is the absolute time of the mode's next arrival, in ns
	// since the node's stream started.
	next float64
	// burstLeft counts CEs remaining in the current burst train.
	burstLeft uint64
	// newTrain marks the next arrival as the first CE of a fresh burst
	// train; the Generator re-draws transient footprints on it.
	newTrain bool
}

// advance schedules the mode's next arrival. All gap means scale by
// 1/skew: a skewed node is the same process on a compressed clock, so
// its long-run rate is exactly skew times the base rate.
func (st *modeState) advance(c *compiledMode, invSkew float64) {
	if st.burstLeft == 0 {
		// Leaving quiet: draw the size of the train this quiet gap
		// leads to (geometric, mean burstLen, minimum 1).
		n := uint64(1)
		if c.burstLen > 1 {
			p := 1 / c.burstLen
			for st.src.Float64() > p {
				n++
			}
		}
		st.burstLeft = n - 1
		st.next += st.src.Exp(c.quietGap * invSkew)
		st.newTrain = true
	} else {
		st.burstLeft--
		st.next += st.src.Exp(c.burstGap * invSkew)
		st.newTrain = false
	}
}

// mixNode is the superposed mixture state of one node: every mode's
// independent renewal process, merged in time order.
type mixNode struct {
	modes   []modeState
	last    float64
	invSkew float64
}

// newMixNode derives a node's per-mode streams and skew from its
// 64-bit key. Draw order is fixed (skew, then modes in canonical
// order) and every draw comes from its own stream, so the node's
// schedule is a pure function of (key, canonical spec).
func newMixNode(key uint64, modes []compiledMode, skewSigma float64) *mixNode {
	n := &mixNode{modes: make([]modeState, len(modes)), invSkew: 1}
	if skewSigma > 0 {
		skew := math.Exp(skewSigma * rng.NewStream(key, streamSkew).Normal(0, 1))
		n.invSkew = 1 / skew
	}
	for i := range modes {
		st := &n.modes[i]
		st.src = rng.NewStream(key, streamGapBase+uint64(i))
		st.advance(&modes[i], n.invSkew)
	}
	return n
}

// step fires the earliest pending arrival across modes and returns the
// owning mode index, the gap since the previous arrival, and whether
// the fired arrival is the first CE of a new burst train. Ties break
// to the lowest canonical index — deterministic, and independent of
// the spec's original mode order.
func (n *mixNode) step(modes []compiledMode) (mode int, gap int64, newTrain bool) {
	mi := 0
	for i := 1; i < len(n.modes); i++ {
		if n.modes[i].next < n.modes[mi].next {
			mi = i
		}
	}
	st := &n.modes[mi]
	nt := st.newTrain
	g := st.next - n.last
	n.last = st.next
	st.advance(&modes[mi], n.invSkew)
	if g < 0 {
		g = 0 // float paranoia; gaps are non-negative by construction
	}
	return mi, int64(g), nt
}

// Process is the mixture's arrival process. It implements
// noise.Arrivals and noise.GapBatcher, so it drops into noise.CE (and
// from there into the simulator's batched fast path and cached
// next-arrival peeking) exactly like the built-in processes. It also
// implements noise.ComponentGapper: its components renew at different
// time scales, and the saturation guard must be calibrated to the
// slowest one, not the combined mean.
//
// One Process value serves every node of a simulation, and may be
// shared by concurrently running repetitions: per-node state is keyed
// by the caller-provided state word, and the handle table below is the
// only shared mutable state.
type Process struct {
	modes      []compiledMode
	skewSigma  float64
	meanGap    float64
	maxModeGap float64
	label      string

	// mu guards the handle table. A node's first NextGap allocates its
	// mixNode and stores handle+1 in the state word; subsequent calls
	// on that node resolve the handle under the lock and then operate
	// on the mixNode without it (each node is driven by exactly one
	// goroutine — its simulation's).
	mu    sync.Mutex
	nodes []*mixNode
}

// Process compiles the spec into an arrival process. The spec must
// carry a positive MTBCENanos (see WithMTBCE).
func (s Spec) Process() (*Process, error) {
	modes, ordered, err := s.compile()
	if err != nil {
		return nil, err
	}
	total, maxGap := 0.0, 0.0
	for _, m := range modes {
		total += m.rate
		if m.meanGap > maxGap {
			maxGap = m.meanGap
		}
	}
	// E[lognormal(0, sigma)] = exp(sigma^2/2): skew preserves the
	// median node but raises the population-mean rate.
	meanGap := 1 / (total * math.Exp(s.SkewSigma*s.SkewSigma/2))
	if badNumber(meanGap) {
		return nil, fmt.Errorf("faultmodel: every mode's rate underflows to zero (weight x flux / mtbce_ns); raise flux or lower mtbce_ns")
	}
	return &Process{
		modes:      modes,
		skewSigma:  s.SkewSigma,
		meanGap:    meanGap,
		maxModeGap: maxGap,
		label:      s.label(ordered),
	}, nil
}

// node resolves (or creates) the per-node mixture state behind a state
// word. The node key is one draw from the node's own rng stream —
// consumed identically on the batched and unbatched paths, so both
// yield bit-identical schedules.
func (p *Process) node(src *rng.Source, state *uint64) *mixNode {
	if h := *state; h != 0 {
		p.mu.Lock()
		n := p.nodes[h-1]
		p.mu.Unlock()
		return n
	}
	n := newMixNode(src.Uint64(), p.modes, p.skewSigma)
	p.mu.Lock()
	p.nodes = append(p.nodes, n)
	*state = uint64(len(p.nodes))
	p.mu.Unlock()
	return n
}

// NextGap implements noise.Arrivals.
func (p *Process) NextGap(src *rng.Source, state *uint64) int64 {
	n := p.node(src, state)
	_, gap, _ := n.step(p.modes)
	return gap
}

// AppendGaps implements noise.GapBatcher: n gaps in one call,
// consuming the streams exactly as n NextGap calls would.
func (p *Process) AppendGaps(dst []int64, src *rng.Source, state *uint64, n int) []int64 {
	nd := p.node(src, state)
	for i := 0; i < n; i++ {
		_, gap, _ := nd.step(p.modes)
		dst = append(dst, gap)
	}
	return dst
}

// MeanGap returns the population-mean inter-arrival time: the
// aggregate rate of all modes (flux applied) times the mean lognormal
// skew multiplier.
func (p *Process) MeanGap() float64 { return p.meanGap }

// MaxComponentMeanGap implements noise.ComponentGapper: the mean gap
// of the slowest mode at skew 1. A stall shorter than a few multiples
// of this is a legitimate burst train from a rare mode, not
// saturation.
func (p *Process) MaxComponentMeanGap() float64 { return p.maxModeGap }

// String implements fmt.Stringer with the canonical composition.
func (p *Process) String() string { return p.label }
