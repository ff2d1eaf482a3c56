package faultmodel

import (
	"fmt"
	"math"

	"repro/internal/noise"
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
	if !(g < 0x1p63) {
		// Past 2^63 ns, or NaN from two infinite clocks: no further CE,
		// not a platform-defined conversion.
		return mi, math.MaxInt64, nt
	}
	return mi, int64(max(g, 0)), nt // float paranoia; gaps are non-negative by construction
}

// Process is the mixture's arrival process. It implements
// noise.Arrivals, so it drops into noise.CE (and from there into the
// simulator's cached next-arrival peeking) exactly like the built-in
// processes. It also implements noise.ComponentGapper: its components
// renew at different time scales, and the saturation guard must be
// calibrated to the slowest one, not the combined mean.
//
// One Process value serves every node of a simulation: a node's first
// NextGap builds its mixNode and stores handle+1 in the caller's state
// word, so drawing writes to the Process and one goroutine at a time
// may draw. noise.CE and noise.SharedCE never draw from the value they
// are configured with but from the copy ForRun hands each of them, so
// repetitions running at once only read the shared value.
type Process struct {
	modes      []compiledMode
	skewSigma  float64
	meanGap    float64
	maxModeGap float64
	label      string
	nodes      []*mixNode
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

// ForRun returns a Process over the same compiled modes with an empty
// node table: what noise.CE and noise.SharedCE draw from, one per run,
// so a run's mixture state is its own and is collected with it.
func (p *Process) ForRun() noise.Arrivals {
	q := *p
	q.nodes = nil
	return &q
}

// node resolves (or creates) the per-node mixture state behind a state
// word. The node key is one draw from the node's own rng stream, so a
// node's schedule depends on (seed, node) alone.
func (p *Process) node(src *rng.Source, state *uint64) *mixNode {
	if h := *state; h != 0 {
		return p.nodes[h-1]
	}
	n := newMixNode(src.Uint64(), p.modes, p.skewSigma)
	p.nodes = append(p.nodes, n)
	*state = uint64(len(p.nodes))
	return n
}

// NextGap implements noise.Arrivals.
func (p *Process) NextGap(src *rng.Source, state *uint64) int64 {
	n := p.node(src, state)
	_, gap, _ := n.step(p.modes)
	return gap
}

// AppendGaps appends n gaps, consuming the streams exactly as n NextGap
// calls would. It is the bulk draw bench/replay.go times for
// faultmodel.gap_ns_per_draw; the simulator draws through NextGap.
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
