package noise

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// SharedCE is the correlated-detour variant of CE for simulations that
// place several ranks on each node. Firmware-first logging enters
// System Management Mode, which halts *all* cores of the node at once
// (§III-B); with more than one rank per node, every co-located rank
// must observe the same detour schedule. SharedCE materializes each
// node's (arrival, duration) schedule lazily and lets any rank charge
// the detours that fall into its own busy windows, in any time order.
//
// For the one-rank-per-node configuration the streaming CE model is
// cheaper; use SharedCE when ranks share nodes.
type SharedCE struct {
	cfg Config
	// arr and meanGap are the run's arrival process and its saturation
	// guard gap (Config.resolve).
	arr          Arrivals
	meanGap      int64
	ranksPerNode int
	nodes        []sharedNode

	events    uint64
	stolen    int64
	saturated bool
}

type sharedNode struct {
	src      *rng.Source
	arrState uint64
	count    uint64
	horizon  int64   // schedule materialized up to this time
	times    []int64 // arrival times, ascending
	durs     []int64 // handling durations, same index
	started  bool
}

// maxScheduleLen bounds per-node schedule growth; hitting it marks the
// model saturated (the configuration generates absurd event counts).
const maxScheduleLen = 1 << 22

// NewSharedCE builds a correlated detour model for nodes*ranksPerNode
// ranks. Rank r lives on node r/ranksPerNode.
func NewSharedCE(nodes, ranksPerNode int, cfg Config) (*SharedCE, error) {
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
		cfg.SaturationFactor = 10000
	}
	m := &SharedCE{cfg: cfg, ranksPerNode: ranksPerNode, nodes: make([]sharedNode, nodes)}
	m.arr, m.meanGap = cfg.resolve()
	return m, nil
}

// ensure materializes node n's schedule up to at least time t.
func (m *SharedCE) ensure(n *sharedNode, node int32, t int64) {
	if !n.started {
		n.src = rng.NewStream(m.cfg.Seed, uint64(node))
		n.started = true
	}
	for n.horizon <= t {
		n.horizon = after(n.horizon, m.arr.NextGap(n.src, &n.arrState))
		n.times = append(n.times, n.horizon)
		n.durs = append(n.durs, m.cfg.Duration.Sample(n.count))
		n.count++
		if len(n.times) >= maxScheduleLen {
			m.saturated = true
			return
		}
	}
}

// Extend implements Model for ranks; it accepts calls in any time order
// from the ranks sharing a node. The model argument is the *rank* id;
// the node is derived from the configured ranks-per-node.
func (m *SharedCE) Extend(rank int32, start, dur int64) int64 {
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

// Events returns the number of detours charged across all ranks. With
// several ranks per node a single CE can be charged by each co-located
// rank whose busy window covers it; Events counts charges, not CEs.
func (m *SharedCE) Events() uint64 { return m.events }

// Stolen returns total charged detour time across all ranks.
func (m *SharedCE) Stolen() int64 { return m.stolen }

// Saturated reports schedule blow-up or a diverging work interval.
func (m *SharedCE) Saturated() bool { return m.saturated }

// NodeSchedule returns a copy of the (arrival, duration) pairs
// materialized so far for a node — the detour trace for analysis.
func (m *SharedCE) NodeSchedule(node int32) (times, durs []int64) {
	n := &m.nodes[node]
	return append([]int64(nil), n.times...), append([]int64(nil), n.durs...)
}
