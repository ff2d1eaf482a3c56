// Package simcache holds the daemon's durable result store (Store) and
// the names the benchmark compiles against for the baseline cache,
// which lives in internal/core as core.ExperimentCache: Cache, Stats
// and New are declarations over that type, and Key is a content hash
// of a configuration.
package simcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
)

// Key returns the canonical content hash of a configuration. Two
// configurations with the same key produce bit-identical baselines.
func Key(cfg core.ExperimentConfig) string {
	cfg = cfg.Canonical()
	h := sha256.New()
	fmt.Fprintf(h, "w=%s|n=%d|i=%d|s=%d|net=%d,%d,%d,%g,%g,%d|coll=%d",
		cfg.Workload, cfg.Nodes, cfg.Iterations, cfg.TraceSeed,
		cfg.Net.L, cfg.Net.O, cfg.Net.Gap, cfg.Net.GPerByte, cfg.Net.OPerByte, cfg.Net.S,
		cfg.Collectives.Allreduce)
	return hex.EncodeToString(h.Sum(nil))
}

// Cache is the baseline cache, core.ExperimentCache.
type Cache = core.ExperimentCache

// Stats is the baseline cache's counter snapshot.
type Stats = core.ExperimentCacheStats

// New returns core.NewExperimentCache(capBytes).
func New(capBytes int64) *Cache { return core.NewExperimentCache(capBytes) }
