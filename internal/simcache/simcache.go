// Package simcache memoizes the expensive noise-free baseline of an
// experiment — trace generation, collective expansion and the baseline
// LogGOPS simulation — behind a content-addressed, size-bounded LRU
// cache. The serving daemon (internal/server) evaluates many CE
// scenarios against few distinct (workload, nodes, iterations) points;
// with the cache, each point pays preparation once instead of per
// request.
//
// Entries are keyed by a canonical hash of core.ExperimentConfig
// (defaults resolved first, so configs that behave identically share an
// entry). Concurrent requests for an absent key are coalesced: one
// goroutine builds, the rest wait for its result.
package simcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/memo"
)

// Key returns the canonical content hash of a configuration. Two
// configurations with the same key produce bit-identical baselines.
func Key(cfg core.ExperimentConfig) string {
	cfg = cfg.Canonical()
	h := sha256.New()
	fmt.Fprintf(h, "w=%s|n=%d|i=%d|s=%d|net=%d,%d,%d,%g,%g,%d|coll=%d,%d",
		cfg.Workload, cfg.Nodes, cfg.Iterations, cfg.TraceSeed,
		cfg.Net.L, cfg.Net.O, cfg.Net.Gap, cfg.Net.GPerByte, cfg.Net.OPerByte, cfg.Net.S,
		cfg.Collectives.Allreduce, cfg.Collectives.RabenseifnerMin)
	return hex.EncodeToString(h.Sum(nil))
}

// entryOverheadBytes accounts for the fixed parts of a cached
// experiment (result and config structs, list/map bookkeeping).
const entryOverheadBytes = 4096

// Cost is the resident size of a cached experiment in bytes: what the
// experiment itself reports holding (its compiled program, its baseline
// and the baseline's idle run state) plus the fixed overhead.
func Cost(exp *core.Experiment) int64 {
	return exp.SizeBytes() + entryOverheadBytes
}

// DefaultCapBytes bounds the cache when New is given a non-positive
// capacity: 256 MiB. Measured over the benchmark's cold configurations
// (12-44 iterations, docs/MODEL.md §7) that is about twenty 512-node
// baselines (8.3 MiB of program and 4.6 MiB of run state each, on
// average) or about eighty 128-node ones (3.2 MiB each). The price is
// set at insertion, with the baseline's run state idle; an entry whose
// repetitions ran concurrently holds up to GOMAXPROCS run states, each
// that size again, outside the bound.
const DefaultCapBytes = 256 << 20

// Stats is a point-in-time snapshot of cache effectiveness: the memo's
// counters (entries, size_bytes, cap_bytes, hits, coalesced, misses,
// evictions; a miss is a lookup that built the baseline) and their
// ratio.
type Stats struct {
	memo.Stats
	// HitRatio is (Hits+Coalesced) / (Hits+Coalesced+Misses), 0 when
	// no lookups have happened.
	HitRatio float64 `json:"hit_ratio"`
}

// Builder produces the baseline for a configuration on a miss. It runs
// outside the cache lock; the default is core.NewExperiment.
type Builder func(cfg core.ExperimentConfig) (*core.Experiment, error)

// Cache is a size-bounded LRU of prepared experiments: an
// internal/memo cache keyed by Key and charged by Cost. All methods are
// safe for concurrent use.
type Cache struct {
	build Builder
	m     *memo.Cache[string, *core.Experiment]
}

// New returns a cache bounded to capBytes of estimated baseline size
// (DefaultCapBytes when capBytes <= 0). The most recently inserted
// entry is always retained, even when it alone exceeds the bound.
func New(capBytes int64) *Cache {
	if capBytes <= 0 {
		capBytes = DefaultCapBytes
	}
	return &Cache{build: core.NewExperiment, m: memo.New[string](capBytes, Cost)}
}

// SetBuilder replaces the baseline builder (tests use this to count or
// fail builds). Not safe to call concurrently with lookups.
func (c *Cache) SetBuilder(b Builder) { c.build = b }

// Get returns the cached experiment for cfg without building, and
// whether it was present.
func (c *Cache) Get(cfg core.ExperimentConfig) (*core.Experiment, bool) {
	return c.m.Get(Key(cfg))
}

// GetOrBuild returns the experiment for cfg, building and inserting
// the baseline on a miss. hit reports whether the baseline was already
// resident or under construction by another goroutine; err is the
// builder's error (not cached — a later lookup retries) or ctx.Err()
// if the context expires while waiting on a concurrent build. The
// build itself is not interrupted by ctx: the baseline stays useful
// for every later request, so abandoning it would waste the work.
func (c *Cache) GetOrBuild(ctx context.Context, cfg core.ExperimentConfig) (exp *core.Experiment, hit bool, err error) {
	return c.m.GetOrBuild(ctx, Key(cfg), func() (*core.Experiment, error) {
		return c.runBuild(ctx, cfg)
	})
}

// BuildError is the typed failure of a fill whose builder panicked,
// with the goroutine stack captured at recovery. It is retryable: a
// later lookup of the same key re-runs the builder (errors are never
// cached), and a transient panic heals on the retry.
type BuildError struct {
	// PanicValue is the value the builder panicked with.
	PanicValue any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *BuildError) Error() string {
	return fmt.Sprintf("simcache: builder panicked: %v", e.PanicValue)
}

// Retryable marks the failed fill eligible for retry by the job layer.
func (e *BuildError) Retryable() bool { return true }

// runBuild executes the builder for one flight: it fires the
// simcache.fill fault site first and converts a panicking builder into
// a *BuildError, which the builder's caller and every waiter of the
// flight then receive.
func (c *Cache) runBuild(ctx context.Context, cfg core.ExperimentConfig) (exp *core.Experiment, err error) {
	defer func() {
		if r := recover(); r != nil {
			exp = nil
			err = &BuildError{PanicValue: r, Stack: string(debug.Stack())}
		}
	}()
	if err := faultinject.Fire(ctx, faultinject.SiteCacheFill); err != nil {
		return nil, fmt.Errorf("simcache: fill: %w", err)
	}
	return c.build(cfg)
}

// Provider adapts the cache to core.Options.Experiments: a builder
// that serves baselines from the cache, building and inserting on a
// miss. ctx bounds waiting on a concurrent fill of the same key (the
// build itself is never interrupted; see GetOrBuild). Cluster workers
// install this so shards sharing a (workload, nodes) point — which
// consistent-hash placement steers to the same worker — pay baseline
// preparation once.
func (c *Cache) Provider(ctx context.Context) func(core.ExperimentConfig) (*core.Experiment, error) {
	return func(cfg core.ExperimentConfig) (*core.Experiment, error) {
		exp, _, err := c.GetOrBuild(ctx, cfg)
		return exp, err
	}
}

// Len returns the number of cached baselines.
func (c *Cache) Len() int { return c.m.Len() }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	s := Stats{Stats: c.m.Stats()}
	if total := s.Hits + s.Coalesced + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits+s.Coalesced) / float64(total)
	}
	return s
}
