// Package cluster distributes campaign sweeps across a fleet of cesimd
// workers: a coordinator shards the (figure x workload) sweep surface
// into cells, leases them to registered workers with heartbeats, expiry
// and re-assignment, and merges the reported fragments into figures
// bit-identical to a sequential campaign.Run of the same plan and seed.
//
// Determinism argument, in one paragraph: a sweep cell is one figure
// driver invocation restricted to a single workload. The drivers
// (core.Figure3..9) iterate workloads in their outermost loop and
// derive every scenario seed from Options.Seed alone — never from the
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
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/tracegen"
)

// Spec is a distributed sweep request: which figures to regenerate and
// the core.Options every cell runs under. It mirrors the fields of
// core.Options that affect results, so a sequential run with the same
// options is bit-comparable.
type Spec struct {
	// Figures lists the figure ids ("3".."9"); empty selects all seven.
	Figures []string `json:"figures,omitempty"`
	// Scale is "reduced" (default) or "paper".
	Scale string `json:"scale,omitempty"`
	// Nodes, Iterations, SpanNanos, OpsBudget, Reps and Seed map to the
	// same-named core.Options fields; zero values select the core
	// defaults, exactly as a sequential run would.
	Nodes      int    `json:"nodes,omitempty"`
	Iterations int    `json:"iters,omitempty"`
	SpanNanos  int64  `json:"span_ns,omitempty"`
	OpsBudget  int    `json:"ops_budget,omitempty"`
	Reps       int    `json:"reps,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	// Workloads restricts the workload set; empty selects all, in the
	// catalog order a sequential run uses.
	Workloads []string `json:"workloads,omitempty"`
}

// withDefaults resolves the enumeration-relevant defaults (figure list
// and workload order). Simulation-relevant defaults are NOT resolved
// here: they travel as zeros and are filled by core.Options
// withDefaults on the worker, keeping one source of truth.
func (s Spec) withDefaults() Spec {
	if len(s.Figures) == 0 {
		for id := range core.Figures() {
			s.Figures = append(s.Figures, id)
		}
		sort.Strings(s.Figures)
	}
	if len(s.Workloads) == 0 {
		s.Workloads = tracegen.Names()
	}
	return s
}

// Validate rejects specs that could not have come from a well-formed
// sequential run.
func (s Spec) Validate() error {
	if _, err := core.ParseScale(s.Scale); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	for _, id := range s.Figures {
		if _, ok := core.Figures()[id]; !ok {
			return fmt.Errorf("cluster: unknown figure %q (want 3..9)", id)
		}
	}
	for _, wl := range s.Workloads {
		if _, err := tracegen.Lookup(wl); err != nil {
			return fmt.Errorf("cluster: unknown workload %q", wl)
		}
	}
	return nil
}

// Options converts the spec to the core.Options a sequential run of
// the same sweep would use.
func (s Spec) Options() core.Options {
	scale, _ := core.ParseScale(s.Scale) // Validate rejects unknown names
	opts := core.Options{
		Scale:      scale,
		Nodes:      s.Nodes,
		Iterations: s.Iterations,
		SpanNanos:  s.SpanNanos,
		OpsBudget:  s.OpsBudget,
		Reps:       s.Reps,
		Seed:       s.Seed,
		Workloads:  s.Workloads,
	}
	return opts
}

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
// workloads in spec order (the drivers' outermost loop).
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
