package simcache

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/noise"
)

// luleshBaseline is the mid-size serving hot spot: a 64-node LULESH
// point, the shape a Fig. 4/5 sweep asks for repeatedly. The hit/miss
// pair below bounds what the daemon saves per request when the
// baseline is resident; the recorded numbers are bench/'s
// simcache.* per-layer metrics (bench/README.md).
func luleshBaseline() core.ExperimentConfig {
	return core.ExperimentConfig{Workload: "lulesh", Nodes: 64, Iterations: 8, TraceSeed: 1}
}

// BenchmarkCacheHit measures the resident-baseline lookup path: hash,
// LRU touch, return. This is the per-request cache overhead when the
// daemon serves a hot (workload, nodes, iters) point.
func BenchmarkCacheHit(b *testing.B) {
	c := New(0)
	cfg := luleshBaseline()
	if _, _, err := c.GetOrBuild(context.Background(), cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, err := c.GetOrBuild(context.Background(), cfg); err != nil || !hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
}

// BenchmarkCacheMiss measures the full build path the cache avoids:
// trace generation, collective expansion and the baseline simulation.
// Each iteration uses a fresh seed so nothing is resident.
func BenchmarkCacheMiss(b *testing.B) {
	c := New(0)
	for i := 0; i < b.N; i++ {
		cfg := luleshBaseline()
		cfg.TraceSeed = uint64(i + 1)
		if _, hit, err := c.GetOrBuild(context.Background(), cfg); err != nil || hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
}

// BenchmarkServeScenario measures one cached end-to-end request: a
// cache hit followed by a three-rep CE scenario, the daemon's steady
// state for a hot point.
func BenchmarkServeScenario(b *testing.B) {
	c := New(0)
	cfg := luleshBaseline()
	if _, _, err := c.GetOrBuild(context.Background(), cfg); err != nil {
		b.Fatal(err)
	}
	sc := core.Scenario{
		MTBCE:    5544 * 1000 * 1000 * 1000 / 64, // exascale-cielo-x10, scale-compensated
		PerEvent: noise.Fixed(775 * 1000),        // software-cmci
		Target:   noise.AllNodes,
		Seed:     2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp, _, err := c.GetOrBuild(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exp.RunRepeatedParallel(sc, 3, 0); err != nil {
			b.Fatal(err)
		}
	}
}
