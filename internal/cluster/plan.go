// Package cluster distributes campaign sweeps across a fleet of cesimd
// workers: a coordinator shards the (figure x workload) sweep surface
// into cells, leases them to registered workers with heartbeats, expiry
// and re-assignment, and merges the reported fragments into figures
// bit-identical to a sequential campaign.Run of the same plan and seed.
//
// Determinism argument, in one paragraph: a sweep cell is one
// core.RunFigure call restricted to a single workload. The figure loop
// iterates workloads outermost, gives each the same declared rows and
// derives every scenario seed from Options.Seed alone — never from the
// workload's position — so the rows a cell produces are exactly the
// rows the full sequential run produces for that workload, whatever
// worker runs it, however often it is retried. The coordinator merges
// fragments in the plan's deterministic cell order, which is the
// sequential iteration order. The per-cell seed derived here
// (splitmix64 over the cell key, via internal/rng) drives only
// scheduling-side randomness — retry backoff jitter — and placement
// scores, never the simulation; Options.Seed travels to workers
// unchanged. See docs/CLUSTER.md.
package cluster

import (
	"hash/fnv"
	"sort"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/tracegen"
)

// Spec is a distributed sweep request: the sweep spec itself
// (core.Options; field table in docs/SERVICE.md), so the /cluster/sweep
// body, the journaled sweep_created record and the spec a leased cell
// runs under are the type a sequential run takes and the results are
// bit-comparable. Admission is core.Options.Validate, in CreateSweep.
type Spec core.Options

// withDefaults resolves the enumeration-relevant defaults (figure list
// and workload order). Simulation-relevant defaults are NOT resolved
// here: they travel as zeros and are filled by core.Options
// withDefaults on the worker, keeping one source of truth.
func (s Spec) withDefaults() Spec {
	if s.Figure != "" {
		s.Figure, s.Figures = "", []string{s.Figure}
	}
	if len(s.Figures) == 0 {
		s.Figures = core.FigureIDs()
	}
	if len(s.Workloads) == 0 {
		s.Workloads = tracegen.Names()
	}
	return s
}

// Options is the spec as the options a figure driver takes.
func (s Spec) Options() core.Options { return core.Options(s) }

// Cell is the unit of distribution: one figure restricted to one
// workload.
type Cell struct {
	Figure   string `json:"figure"`
	Workload string `json:"workload"`
}

// Key is the cell's stable identity within a sweep.
func (c Cell) Key() string { return "fig" + c.Figure + "/" + c.Workload }

// Cells enumerates the sweep cells in the deterministic merge order:
// figure-major (ascending id, as campaign.RunContext iterates), then
// workloads in spec order (the figure loop's outermost loop).
func (s Spec) Cells() []Cell {
	s = s.withDefaults()
	figs := append([]string(nil), s.Figures...)
	sort.Strings(figs)
	cells := make([]Cell, 0, len(figs)*len(s.Workloads))
	for _, id := range figs {
		for _, wl := range s.Workloads {
			cells = append(cells, Cell{Figure: id, Workload: wl})
		}
	}
	return cells
}

// hash64 folds a string through FNV-1a into 64 bits.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// CellSeed derives the cell's scheduling seed: splitmix64 (rng.Mix64)
// over the FNV hash of the cell key, mixed with the sweep's base seed.
// It feeds the shard's retry-jitter stream and nothing else — the
// simulation seed is Spec.Seed, untouched, or distribution would break
// bit-identity with the sequential run.
func CellSeed(base uint64, key string) uint64 {
	return rng.Mix64(base ^ hash64(key))
}

// Place picks the worker a cell prefers via rendezvous (highest random
// weight) consistent hashing over the placement key: each worker
// scores rng.Mix64(hash(worker) ^ hash(key)) and the highest score
// wins. Adding or removing a worker only moves the cells that scored
// highest on it, so baseline-cache (simcache) residency stays warm on
// the survivors. The placement key is the cell's workload: every
// figure shares one prepared baseline per (workload, nodes) point, so
// co-locating a workload's cells maximizes cache hits. Empty worker
// list returns "".
func Place(key string, workers []string) string {
	kh := hash64(key)
	best, bestScore := "", uint64(0)
	for _, w := range workers {
		score := rng.Mix64(hash64(w) ^ kh)
		// Tie-break on the lexically smaller id so the choice is a pure
		// function of the inputs.
		if best == "" || score > bestScore || (score == bestScore && w < best) {
			best, bestScore = w, score
		}
	}
	return best
}
