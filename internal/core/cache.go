package core

import (
	"context"
	"fmt"
	"runtime/debug"

	"repro/internal/faultinject"
	"repro/internal/memo"
)

// DefaultExperimentCacheBytes bounds an ExperimentCache constructed
// with a non-positive capacity, the process-wide one behind
// SharedExperiment included: 256 MiB. Measured over the benchmark's
// cold configurations (12-44 iterations, docs/MODEL.md §7) that is
// about twenty-seven 512-node baselines (8.3 MiB of program and 1.1 MiB
// of run state each, on average) or about a hundred and ten 128-node
// ones (2.3 MiB each); the nine of a default reduced-scale reproduction
// take 109 MiB together. The price is set at insertion, with the
// baseline's run state idle; an entry whose repetitions ran
// concurrently holds up to GOMAXPROCS run states, each the size of the
// baseline's, outside the bound.
const DefaultExperimentCacheBytes = 256 << 20

// ExperimentCache is a size-bounded LRU of prepared experiments: an
// internal/memo cache keyed by the canonical configuration (so configs
// that behave identically share an entry) and charged by what each
// experiment reports holding, SizeBytes. Concurrent lookups of an
// absent configuration share one build. The process-wide instance
// behind SharedExperiment serves the figures, surfaces and studies;
// the daemon and each cluster worker hold their own. All methods are
// safe for concurrent use.
type ExperimentCache struct {
	m *memo.Cache[ExperimentConfig, *Experiment]
	// build replaces NewExperiment in tests; nil means NewExperiment.
	build func(ExperimentConfig) (*Experiment, error)
}

// NewExperimentCache returns a cache bounded to capBytes of estimated
// baseline size (DefaultExperimentCacheBytes when capBytes <= 0). The
// most recently inserted entry is always kept, even when it alone
// exceeds the bound.
func NewExperimentCache(capBytes int64) *ExperimentCache {
	if capBytes <= 0 {
		capBytes = DefaultExperimentCacheBytes
	}
	return &ExperimentCache{m: memo.New[ExperimentConfig](capBytes, (*Experiment).SizeBytes)}
}

// GetOrBuild returns the experiment for cfg, building and inserting
// the baseline on a miss. hit reports whether the baseline was already
// resident or under construction by another goroutine; err is the
// build's error (not cached — a later lookup retries), a *BuildError
// when the builder panicked, or ctx.Err() if the context expires while
// waiting on a concurrent build. The build itself is not interrupted
// by ctx: the baseline stays useful for every later request, so
// abandoning it would waste the work.
func (c *ExperimentCache) GetOrBuild(ctx context.Context, cfg ExperimentConfig) (exp *Experiment, hit bool, err error) {
	return c.m.GetOrBuild(ctx, cfg.Canonical(), func() (*Experiment, error) {
		return c.fill(ctx, cfg)
	})
}

// fill builds cfg's experiment for one flight: it fires the
// simcache.fill fault site first and turns a panicking builder into a
// *BuildError, which the builder's caller and every waiter of the
// flight then receive.
func (c *ExperimentCache) fill(ctx context.Context, cfg ExperimentConfig) (exp *Experiment, err error) {
	defer func() {
		if r := recover(); r != nil {
			exp, err = nil, &BuildError{PanicValue: r, Stack: string(debug.Stack())}
		}
	}()
	if err := faultinject.Fire(ctx, faultinject.SiteCacheFill); err != nil {
		return nil, fmt.Errorf("core: baseline fill: %w", err)
	}
	if c.build != nil {
		return c.build(cfg)
	}
	return NewExperiment(cfg)
}

// BuildError is the typed failure of a fill whose builder panicked,
// with the goroutine stack captured at recovery. It is retryable: a
// later lookup of the same configuration re-runs the builder (errors
// are never cached), and a transient panic heals on the retry.
type BuildError struct {
	// PanicValue is the value the builder panicked with.
	PanicValue any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *BuildError) Error() string {
	return fmt.Sprintf("core: baseline build panicked: %v", e.PanicValue)
}

// Retryable marks the failed fill eligible for retry by the job layer.
func (e *BuildError) Retryable() bool { return true }

// PanicStack returns the stack captured at recovery.
func (e *BuildError) PanicStack() string { return e.Stack }

// ExperimentCacheStats is a point-in-time snapshot of cache
// effectiveness: the memo's counters (entries, size_bytes, cap_bytes,
// hits, coalesced, misses, evictions; a miss is a lookup that built the
// baseline) and their ratio.
type ExperimentCacheStats struct {
	memo.Stats
	// HitRatio is (Hits+Coalesced) / (Hits+Coalesced+Misses), 0 when
	// no lookups have happened.
	HitRatio float64 `json:"hit_ratio"`
}

// Stats returns a snapshot of the cache counters.
func (c *ExperimentCache) Stats() ExperimentCacheStats {
	s := ExperimentCacheStats{Stats: c.m.Stats()}
	if total := s.Hits + s.Coalesced + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits+s.Coalesced) / float64(total)
	}
	return s
}

// experiments is the process-wide cache behind SharedExperiment. Every
// figure, surface and study a process runs without an
// Options.Experiments provider builds each baseline once here.
var experiments = NewExperimentCache(DefaultExperimentCacheBytes)

// SharedExperiment returns cfg's experiment from the process-wide
// cache, building it when it is neither resident nor under
// construction; concurrent callers for one configuration share one
// build. ctx bounds this caller's wait on another caller's build, never
// the build itself. Baseline construction is deterministic, so the
// experiment is bit-identical to NewExperiment's and may be shared: it
// is safe for concurrent repetitions.
func SharedExperiment(ctx context.Context, cfg ExperimentConfig) (*Experiment, error) {
	e, _, err := experiments.GetOrBuild(ctx, cfg)
	return e, err
}
