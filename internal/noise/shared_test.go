package noise

// A shared CE is a CE with RanksPerNode > 1: firmware-first logging
// halts every core of a node (§III-B), so the node's ranks see one
// detour schedule. sharedReference is the model that once implemented
// it separately, kept as the test-only oracle CE is held to.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// sharedReference materializes each node's (arrival, duration)
// schedule lazily and lets any rank charge the detours that fall into
// its own busy windows, in any time order. It differs from CE only
// after a guard trip: its saturated flag then stops every later charge
// on every rank, where CE stops charging the tripping interval only.
type sharedReference struct {
	cfg          Config
	arr          Arrivals
	meanGap      int64
	ranksPerNode int
	nodes        []sharedNode

	events    uint64
	stolen    int64
	saturated bool
}

type sharedNode struct {
	src      rng.Source
	arrState uint64
	count    uint64
	horizon  int64   // schedule materialized up to this time
	times    []int64 // arrival times, ascending
	durs     []int64 // handling durations, same index
	started  bool
}

// maxScheduleLen bounds per-node schedule growth; hitting it marks the
// model saturated.
const maxScheduleLen = 1 << 22

// newSharedReference builds the reference for nodes*ranksPerNode ranks.
// Rank r lives on node r/ranksPerNode.
func newSharedReference(nodes, ranksPerNode int, cfg Config) (*sharedReference, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ranksPerNode < 1 {
		return nil, fmt.Errorf("noise: ranks per node must be >= 1, got %d", ranksPerNode)
	}
	if cfg.Target != AllNodes && int(cfg.Target) >= nodes {
		return nil, fmt.Errorf("noise: target node %d outside [0,%d)", cfg.Target, nodes)
	}
	if cfg.SaturationFactor == 0 {
		cfg.SaturationFactor = 1000
	}
	m := &sharedReference{cfg: cfg, ranksPerNode: ranksPerNode, nodes: make([]sharedNode, nodes)}
	m.arr, m.meanGap = cfg.resolve()
	return m, nil
}

// ensure materializes node n's schedule up to at least time t.
func (m *sharedReference) ensure(n *sharedNode, node int32, t int64) {
	if !n.started {
		n.src = rng.Stream(m.cfg.Seed, uint64(node))
		n.started = true
	}
	for n.horizon <= t {
		n.horizon = after(n.horizon, m.arr.NextGap(&n.src, &n.arrState))
		n.times = append(n.times, n.horizon)
		n.durs = append(n.durs, m.cfg.Duration.Sample(n.count))
		n.count++
		if len(n.times) >= maxScheduleLen {
			m.saturated = true
			return
		}
	}
}

// Extend implements Model; it accepts calls in any time order from the
// ranks sharing a node.
func (m *sharedReference) Extend(rank int32, start, dur int64) int64 {
	node := rank / int32(m.ranksPerNode)
	if m.cfg.Target != AllNodes && node != m.cfg.Target {
		return start + dur
	}
	n := &m.nodes[node]
	end := start + dur
	limit := dur
	if m.meanGap > limit {
		limit = m.meanGap
	}
	maxSteal := limit * m.cfg.SaturationFactor
	m.ensure(n, node, end)
	if m.saturated {
		return end
	}
	// First arrival at or after start.
	i := sort.Search(len(n.times), func(k int) bool { return n.times[k] >= start })
	var stolenHere int64
	for {
		if i >= len(n.times) {
			m.ensure(n, node, end)
			if m.saturated || i >= len(n.times) {
				break
			}
		}
		if n.times[i] >= end {
			break
		}
		d := n.durs[i]
		end += d
		stolenHere += d
		m.events++
		m.stolen += d
		i++
		if stolenHere > maxSteal {
			m.saturated = true
			break
		}
	}
	return end
}

// NextArrival returns math.MinInt64: the engine consults the reference
// on every interval.
func (m *sharedReference) NextArrival(int32) int64 { return math.MinInt64 }

func (m *sharedReference) Events() uint64  { return m.events }
func (m *sharedReference) Stolen() int64   { return m.stolen }
func (m *sharedReference) Saturated() bool { return m.saturated }

func TestSharedCEValidation(t *testing.T) {
	good := Config{Seed: 1, MTBCE: s, Duration: Fixed(ms), Target: AllNodes, RanksPerNode: 2}
	if _, err := NewCE(8, good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := NewCE(8, Config{Seed: 1, MTBCE: s, Duration: Fixed(ms), Target: AllNodes, RanksPerNode: -1}); err == nil {
		t.Fatal("negative ranks per node accepted")
	}
	if _, err := NewCE(8, Config{Seed: 1, MTBCE: s, Duration: Fixed(ms), Target: 4, RanksPerNode: 2}); err == nil {
		t.Fatal("target beyond node count accepted")
	}
	if _, err := NewCE(8, Config{MTBCE: 0, Duration: Fixed(1), RanksPerNode: 2}); err == nil {
		t.Fatal("invalid noise config accepted")
	}
	// Seven ranks four to a node: node 1 holds ranks 4-6 only.
	m, err := NewCE(7, Config{Seed: 1, MTBCE: ms, Duration: Fixed(us), Target: 1, RanksPerNode: 4})
	if err != nil {
		t.Fatalf("target on a partial last node rejected: %v", err)
	}
	if m.Extend(6, 0, s) == s {
		t.Fatal("last rank of a partial node not extended")
	}
}

func TestSharedCECorrelatedAcrossRanks(t *testing.T) {
	// Two ranks on the same node, identical busy windows: both must be
	// extended identically (the SMI halts the whole node).
	m, err := NewCE(4, Config{Seed: 3, MTBCE: 10 * ms, Duration: Fixed(ms), Target: AllNodes, RanksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := m.Extend(0, 0, s) // rank 0, node 0
	b := m.Extend(1, 0, s) // rank 1, node 0
	if a != b {
		t.Fatalf("co-located ranks diverged: %d vs %d", a, b)
	}
	// A rank on the other node sees a different schedule.
	c := m.Extend(2, 0, s) // rank 2, node 1
	if c == a {
		t.Fatal("distinct nodes share a schedule")
	}
}

func TestSharedCEMatchesStreamingStatistically(t *testing.T) {
	// One rank per node and a long window: the reference and CE walk
	// the same schedule (durations draw no randomness), so they charge
	// exactly the same detour time, not merely a similar one.
	cfg := Config{Seed: 9, MTBCE: 2 * ms, Duration: Fixed(50 * us), Target: AllNodes}
	shared, err := newSharedReference(1, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	streaming, err := NewCE(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := shared.Extend(0, 0, 10*s)
	b := streaming.Extend(0, 0, 10*s)
	if a != b || shared.Events() != streaming.Events() || a == 10*s {
		t.Fatalf("reference end %d after %d events, CE %d after %d", a, shared.Events(), b, streaming.Events())
	}
}

func TestSharedCETargetedNode(t *testing.T) {
	m, err := NewCE(4, Config{Seed: 5, MTBCE: ms, Duration: Fixed(100 * us), Target: 1, RanksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Ranks 0,1 on node 0: unaffected. Ranks 2,3 on node 1: affected.
	if got := m.Extend(0, 0, s); got != s {
		t.Fatal("untargeted node extended")
	}
	if got := m.Extend(1, 0, s); got != s {
		t.Fatal("untargeted node extended (rank 1)")
	}
	if got := m.NextArrival(1); got != math.MaxInt64 {
		t.Fatalf("untargeted rank reports an arrival at %d", got)
	}
	c, d := m.Extend(2, 0, s), m.Extend(3, 0, s)
	if c == s || d != c {
		t.Fatalf("targeted node's ranks end at %d and %d, want one end past %d", c, d, s)
	}
}

func TestSharedCESaturationGuard(t *testing.T) {
	m, err := NewCE(2, Config{
		Seed: 1, MTBCE: ms, Duration: Fixed(100 * ms), Target: AllNodes, SaturationFactor: 10, RanksPerNode: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Extend(0, 0, s)
	if !m.Saturated() {
		t.Fatal("divergent load not flagged")
	}
}

// TestSharedCEGuardTripStopsOneInterval: a guard trip on one rank ends
// that interval's charging only. The reference's saturated flag stops
// every later charge on every rank, so its run goes on noise-free after
// the first trip.
func TestSharedCEGuardTripStopsOneInterval(t *testing.T) {
	// ρ = 1 and a budget of one interval length: rank 0's first
	// interval trips the guard.
	cfg := Config{Seed: 1, MTBCE: ms, Duration: Fixed(ms), Target: AllNodes, SaturationFactor: 1, RanksPerNode: 2}
	m, err := NewCE(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newSharedReference(1, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := m.Extend(0, 0, 10*ms), ref.Extend(0, 0, 10*ms); a != b || !m.Saturated() || !ref.Saturated() {
		t.Fatalf("tripping interval: CE end %d saturated %v, reference end %d saturated %v", a, m.Saturated(), b, ref.Saturated())
	}
	if got := m.Extend(1, 200*ms, 10*ms); got == 210*ms {
		t.Fatal("CE stopped charging the other rank after a trip")
	}
	if got := ref.Extend(1, 200*ms, 10*ms); got != 210*ms {
		t.Fatalf("reference charged after a trip: end %d; the difference this test pins is gone", got)
	}
}

func TestSharedCECounters(t *testing.T) {
	m, err := NewCE(2, Config{Seed: 4, MTBCE: 10 * ms, Duration: Fixed(ms), Target: AllNodes, RanksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Extend(0, 0, s)
	ev1 := m.Events()
	m.Extend(1, 0, s) // same node, same window: same detours charged again
	if m.Events() != 2*ev1 {
		t.Fatalf("events = %d after symmetric double charge, want %d", m.Events(), 2*ev1)
	}
	if m.Stolen() != int64(m.Events())*ms {
		t.Fatal("stolen/events mismatch")
	}
}
