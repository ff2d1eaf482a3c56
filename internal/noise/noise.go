// Package noise models correctable-error (CE) handling detours injected
// into the simulation.
//
// Following the paper's methodology (§III-D), CE occurrences on each node
// form a Poisson process: inter-arrival times are exponentially
// distributed with mean MTBCE(node). Each occurrence steals the CPU for a
// per-event handling duration determined by the logging mode (hardware
// correction only, OS/CMCI software logging, or firmware/EMCA logging).
// The simulator charges detours against CPU-busy intervals: whenever a
// rank's CPU is busy for a window of simulated time, every CE arriving in
// that (growing) window extends it by the event's handling time. CEs that
// arrive while the node is idle do not delay the application — exactly
// the semantics of LogGOPSim's noise injection.
//
// Because handling a CE occupies wall-clock time during which further CEs
// may arrive, the process is a renewal race: when the mean handling time
// approaches MTBCE the node stops making forward progress. The model
// detects this saturation and reports it instead of looping forever,
// mirroring the paper's Fig. 7 note that the MTBCE = 0.2 s × 133 ms
// configuration is omitted because "the application is essentially unable
// to make any reasonable forward progress".
package noise

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Model is the interface the simulator uses to account for detours.
// Extend returns the completion time of CPU work of length dur starting
// at start on the given rank. NextArrival reports the time of the
// rank's next detour arrival: callers may skip Extend for any work
// interval ending at or before it (no arrival lands in it, so Extend
// would be an expensive no-op), but must re-query after every Extend
// call on that rank, which may advance the schedule. A model that
// cannot tell returns math.MinInt64 and is consulted on every interval.
type Model interface {
	Extend(rank int32, start, dur int64) int64
	NextArrival(rank int32) int64
}

// None is the noise-free model.
type None struct{}

// Extend returns start+dur: no detours.
func (None) Extend(_ int32, start, dur int64) int64 { return start + dur }

// NextArrival returns math.MaxInt64: no detour ever arrives.
func (None) NextArrival(int32) int64 { return math.MaxInt64 }

// Duration models the per-event handling time. Sample takes no rng
// stream: durations draw no randomness, so a node's stream feeds only
// its arrival process, and its arrival schedule is the same however
// the node's detours are charged.
type Duration interface {
	// Sample returns the handling time of a node's count-th CE (from
	// zero), for patterns such as "every 10th event pays the firmware
	// decode".
	Sample(count uint64) int64
	// Mean returns the long-run mean handling time in nanoseconds,
	// used for saturation analysis.
	Mean() float64
	fmt.Stringer
}

// Fixed is a constant per-event handling time.
type Fixed int64

// Sample returns the fixed duration.
func (f Fixed) Sample(uint64) int64 { return int64(f) }

// Mean returns the fixed duration.
func (f Fixed) Mean() float64 { return float64(f) }

func (f Fixed) String() string { return fmt.Sprintf("fixed(%dns)", int64(f)) }

// EveryNth charges Base per event plus Extra on every Nth event, the
// shape of firmware (EMCA) logging with a correctable-error threshold:
// each CE raises an SMI (Base, ~7 ms measured on Blake) and every Nth CE
// additionally pays the firmware decode+log (Extra, ~500 ms).
type EveryNth struct {
	Base  int64
	Extra int64
	N     uint64
}

// Sample returns Base, plus Extra when count is a multiple of N.
func (e EveryNth) Sample(count uint64) int64 {
	if e.N > 0 && count%e.N == e.N-1 {
		return e.Base + e.Extra
	}
	return e.Base
}

// Mean returns Base + Extra/N.
func (e EveryNth) Mean() float64 {
	if e.N == 0 {
		return float64(e.Base)
	}
	return float64(e.Base) + float64(e.Extra)/float64(e.N)
}

func (e EveryNth) String() string {
	return fmt.Sprintf("every%d(base=%dns,extra=%dns)", e.N, e.Base, e.Extra)
}

// AllNodes targets CE injection at every node.
const AllNodes int32 = -1

// Config describes a CE injection scenario.
type Config struct {
	// Seed drives all randomness; same seed, same detour schedule.
	Seed uint64
	// MTBCE is the mean time between correctable errors per node, in
	// nanoseconds. Used when Arrivals is nil (Poisson process, the
	// paper's model).
	MTBCE int64
	// Arrivals overrides the arrival process (e.g. a faultmodel
	// mixture). When set, MTBCE is ignored.
	Arrivals Arrivals
	// Duration is the per-event handling time model.
	Duration Duration
	// Target selects the node experiencing CEs, or AllNodes.
	Target int32
	// RanksPerNode places this many consecutive ranks on each node
	// (rank r lives on node r/RanksPerNode). Firmware-first logging
	// halts every core of a node (§III-B), so a node's ranks see one
	// detour schedule: each draws from its node's stream. Zero means 1.
	RanksPerNode int
	// SaturationFactor bounds the detour time charged against a single
	// work interval, as a multiple of max(work, MTBCE). When exceeded
	// the node is marked saturated and further charging on that
	// interval stops. Zero means the default of 1,000.
	SaturationFactor int64
}

// arrivals returns the effective arrival process.
func (c Config) arrivals() Arrivals {
	if c.Arrivals != nil {
		return c.Arrivals
	}
	return Poisson(c.MTBCE)
}

// resolve returns the run's own instance of the arrival process (see
// perRun) and the gap its saturation guard is calibrated to: MeanGap
// truncated to ns, raised to the slowest component's mean for
// composite processes (see ComponentGapper). NewCE calls it once:
// converting Config.MTBCE to a Poisson value inside Extend would box it
// into the Arrivals interface on every call — one heap allocation per
// CPU-busy interval, dominating the simulator's allocation profile.
func (c Config) resolve() (arr Arrivals, guardGap int64) {
	arr = c.arrivals()
	if r, ok := arr.(perRun); ok {
		arr = r.ForRun()
	}
	guardGap = int64(arr.MeanGap())
	if cg, ok := arr.(ComponentGapper); ok {
		// A mixture's combined mean gap is dominated by its fastest
		// mode; guard against the slowest one so a rare mode's burst
		// train is not misread as saturation.
		if g := int64(cg.MaxComponentMeanGap()); g > guardGap {
			guardGap = g
		}
	}
	return arr, guardGap
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Arrivals == nil && c.MTBCE <= 0 {
		return fmt.Errorf("noise: MTBCE must be positive, got %d", c.MTBCE)
	}
	if c.Arrivals != nil {
		// A custom process must report a positive, finite mean gap:
		// NaN compares false against every bound and would otherwise
		// slip through both this check and the saturation guard in
		// core (NaN >= 1 is false), and an infinite or non-positive
		// gap makes the load factor meaningless.
		mg := c.Arrivals.MeanGap()
		if math.IsNaN(mg) || math.IsInf(mg, 0) || mg <= 0 {
			return fmt.Errorf("noise: arrival process %v must have a positive finite mean gap, got %v", c.Arrivals, mg)
		}
	}
	if c.Duration == nil {
		return fmt.Errorf("noise: nil duration model")
	}
	if c.Duration.Mean() < 0 {
		return fmt.Errorf("noise: negative mean handling time")
	}
	if c.Target < AllNodes {
		return fmt.Errorf("noise: bad target node %d", c.Target)
	}
	if c.RanksPerNode < 0 {
		return fmt.Errorf("noise: ranks per node must be >= 0, got %d", c.RanksPerNode)
	}
	return nil
}

// LoadFactor returns the long-run fraction of CPU time consumed by CE
// handling, rho = E[D] / E[inter-arrival]. Values >= 1 mean the node
// cannot make forward progress. A degenerate arrival process (NaN or
// non-positive mean gap — rejected by Validate, but callers may skip
// it) reports +Inf so saturation guards comparing against a threshold
// fail safe instead of letting NaN slip past.
func (c Config) LoadFactor() float64 {
	mg := c.arrivals().MeanGap()
	if math.IsNaN(mg) || mg <= 0 {
		return math.Inf(1)
	}
	return c.Duration.Mean() / mg
}

// rankState is the lazily generated arrival stream of one rank: its
// node's schedule, walked at the rank's own pace.
type rankState struct {
	src      rng.Source
	next     int64  // next CE arrival time
	count    uint64 // CEs of the node handled so far (drives EveryNth)
	arrState uint64 // arrival-process state (e.g. remaining burst)
	started  bool
}

// CE is the correctable-error detour model. A node's ranks draw from
// the node's stream, rng.Stream(Seed, node), and durations draw no
// randomness, so every rank of a node walks the same (arrival,
// duration) schedule by itself; each charges the detours that land in
// its own busy windows.
type CE struct {
	cfg Config
	// arr and meanGap are the run's arrival process and its saturation
	// guard gap (Config.resolve).
	arr     Arrivals
	meanGap int64
	// rpn is the resolved RanksPerNode; first is the first rank
	// charged: 0 for AllNodes, rpn*Target otherwise.
	rpn, first int32
	// ranks is indexed by rank-first: every rank for AllNodes, the rpn
	// ranks of a single Target otherwise; states are started on first
	// use.
	ranks []rankState

	// Counters (not synchronized; the simulator is single-goroutine).
	// With several ranks per node one CE is charged by each co-located
	// rank whose busy window covers it: events counts charges.
	events    uint64 // detours charged
	stolen    int64  // total detour time charged, ns
	saturated bool
}

// NewCE builds a detour model for n ranks, Config.RanksPerNode to a
// node. It returns an error for invalid configurations.
func NewCE(n int, cfg Config) (*CE, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rpn := max(cfg.RanksPerNode, 1)
	if nodes := (n + rpn - 1) / rpn; cfg.Target != AllNodes && int(cfg.Target) >= nodes {
		return nil, fmt.Errorf("noise: target node %d outside [0,%d)", cfg.Target, nodes)
	}
	if cfg.SaturationFactor == 0 {
		cfg.SaturationFactor = 1000
	}
	m := &CE{cfg: cfg, rpn: int32(rpn)}
	if cfg.Target != AllNodes {
		m.first, n = int32(rpn)*cfg.Target, rpn
	}
	m.ranks = make([]rankState, n)
	m.arr, m.meanGap = cfg.resolve()
	return m, nil
}

// state returns the state of a rank the model charges, or nil for a
// rank outside the Target node.
func (m *CE) state(rank int32) *rankState {
	if m.cfg.Target != AllNodes {
		if i := rank - m.first; i >= 0 && i < m.rpn {
			return &m.ranks[i]
		}
		return nil
	}
	return &m.ranks[rank]
}

// start initializes a rank's arrival stream, its node's, and draws its
// first gap.
func (m *CE) start(st *rankState, rank int32) {
	st.src = rng.Stream(m.cfg.Seed, uint64(rank/m.rpn))
	st.started = true
	m.advance(st)
}

// advance moves the rank's next arrival one gap later.
func (m *CE) advance(st *rankState) {
	st.next = after(st.next, m.arr.NextGap(&st.src, &st.arrState))
}

// NextArrival returns the time of the rank's next CE arrival, starting
// the rank's stream on first use. The simulator caches this to skip
// Extend entirely for work intervals that no arrival can reach — the
// overwhelmingly common case at realistic MTBCEs — and must refresh
// the cache after every Extend call on the rank.
func (m *CE) NextArrival(rank int32) int64 {
	st := m.state(rank)
	if st == nil {
		return math.MaxInt64
	}
	if !st.started {
		m.start(st, rank)
	}
	return st.next
}

// Extend implements Model. Each rank's CPU timeline must be queried
// with non-decreasing start times, which the simulator guarantees
// (each rank's CPU-busy intervals are scheduled in order).
func (m *CE) Extend(rank int32, start, dur int64) int64 {
	st := m.state(rank)
	if st == nil {
		return start + dur
	}
	if !st.started {
		m.start(st, rank)
	}
	end := start + dur
	if st.next >= end {
		// No arrival can land in this window; don't touch the stream.
		return end
	}
	// CEs that arrived while the rank was idle are skipped without
	// charge: the handling happened while the application had nothing
	// to do. (Handling durations comparable to the idle gap blur this,
	// but the first-order model matches LogGOPSim's noise injection.)
	for st.next < start {
		st.count++
		m.advance(st)
	}
	limit := dur
	if m.meanGap > limit {
		limit = m.meanGap
	}
	maxSteal := limit * m.cfg.SaturationFactor
	var stolenHere int64
	for st.next < end {
		d := m.cfg.Duration.Sample(st.count)
		st.count++
		end += d
		stolenHere += d
		m.events++
		m.stolen += d
		m.advance(st)
		if stolenHere > maxSteal {
			m.saturated = true
			break
		}
	}
	return end
}

// Events returns the number of detours charged so far.
func (m *CE) Events() uint64 { return m.events }

// Stolen returns the total CPU time consumed by detours so far.
func (m *CE) Stolen() int64 { return m.stolen }

// Saturated reports whether any work interval hit the saturation bound,
// meaning the simulated application is effectively unable to progress.
func (m *CE) Saturated() bool { return m.saturated }
