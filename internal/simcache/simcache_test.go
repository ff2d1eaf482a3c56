package simcache

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/netmodel"
)

func tinyCfg(seed uint64) core.ExperimentConfig {
	return core.ExperimentConfig{Workload: "minife", Nodes: 16, Iterations: 2, TraceSeed: seed}
}

func TestKeyCanonicalization(t *testing.T) {
	zero := tinyCfg(1)
	explicit := zero
	explicit.Net = netmodel.CrayXC40()
	if Key(zero) != Key(explicit) {
		t.Fatal("zero-Net and explicit-Cray configs hash differently")
	}
	other := tinyCfg(2)
	if Key(zero) == Key(other) {
		t.Fatal("distinct seeds collide")
	}
	otherNet := zero
	otherNet.Net = netmodel.Params{L: 1, O: 1, Gap: 1, GPerByte: 0.5, OPerByte: 0.5, S: 64}
	if Key(zero) == Key(otherNet) {
		t.Fatal("distinct network models collide")
	}
}

func TestGetOrBuildHitMiss(t *testing.T) {
	c := New(0)
	ctx := context.Background()

	e1, hit, err := c.GetOrBuild(ctx, tinyCfg(1))
	if err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v", hit, err)
	}
	e2, hit, err := c.GetOrBuild(ctx, tinyCfg(1))
	if err != nil || !hit {
		t.Fatalf("second lookup: hit=%v err=%v", hit, err)
	}
	if e1 != e2 {
		t.Fatal("hit returned a different experiment")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.HitRatio != 0.5 {
		t.Fatalf("stats %+v", s)
	}
	if s.SizeBytes <= 0 || s.SizeBytes > s.CapBytes {
		t.Fatalf("implausible size accounting: %+v", s)
	}
}

func TestEvictionRespectsBound(t *testing.T) {
	first, err := core.NewExperiment(tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	// Bound the cache to half again one entry so the second insert
	// evicts the first.
	c := New(first.SizeBytes() * 3 / 2)
	ctx := context.Background()
	if _, _, err := c.GetOrBuild(ctx, tinyCfg(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrBuild(ctx, tinyCfg(2)); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Entries != 1 || s.Evictions != 1 {
		t.Fatalf("stats after eviction: %+v", s)
	}
	if _, hit, err := c.GetOrBuild(ctx, tinyCfg(2)); err != nil || !hit {
		t.Fatalf("most recent entry evicted: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.GetOrBuild(ctx, tinyCfg(1)); err != nil || hit {
		t.Fatalf("evicted entry still resident: hit=%v err=%v", hit, err)
	}
}

func TestLRUOrderSurvivesTouches(t *testing.T) {
	exp, err := core.NewExperiment(tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	// Room for two entries; touching the older one should make the
	// middle one the eviction victim.
	c := New(exp.SizeBytes() * 5 / 2)
	ctx := context.Background()
	for _, seed := range []uint64{1, 2} {
		if _, _, err := c.GetOrBuild(ctx, tinyCfg(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if _, hit, err := c.GetOrBuild(ctx, tinyCfg(1)); err != nil || !hit { // touch 1: order is now [1, 2]
		t.Fatalf("entry 1 missing before touch test: hit=%v err=%v", hit, err)
	}
	if _, _, err := c.GetOrBuild(ctx, tinyCfg(3)); err != nil { // evicts 2
		t.Fatal(err)
	}
	if _, hit, err := c.GetOrBuild(ctx, tinyCfg(1)); err != nil || !hit {
		t.Fatalf("recently touched entry evicted: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.GetOrBuild(ctx, tinyCfg(2)); err != nil || hit {
		t.Fatalf("least recently used entry survived: hit=%v err=%v", hit, err)
	}
}

// TestBuilderErrorNotCached: a failed fill — here a transient error
// injected at the fill site — is not cached; the next lookup builds.
func TestBuilderErrorNotCached(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteCacheFill: {Kind: faultinject.KindError, Probability: 1, Count: 1},
	}); err != nil {
		t.Fatal(err)
	}
	c := New(0)
	ctx := context.Background()
	if _, _, err := c.GetOrBuild(ctx, tinyCfg(1)); err == nil {
		t.Fatal("builder error swallowed")
	}
	if _, hit, err := c.GetOrBuild(ctx, tinyCfg(1)); err != nil || hit {
		t.Fatalf("retry after error: hit=%v err=%v", hit, err)
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestConcurrentMixedLookups(t *testing.T) {
	c := New(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := tinyCfg(uint64(i%2 + 1))
			if _, _, err := c.GetOrBuild(context.Background(), cfg); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries != 2 {
		t.Fatalf("entries %d, want 2", s.Entries)
	}
	if s.Hits+s.Coalesced+s.Misses != 8 {
		t.Fatalf("lookup accounting off: %+v", s)
	}
}

func TestKeyIsStableHex(t *testing.T) {
	k := Key(tinyCfg(1))
	if len(k) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", k)
	}
	if k != Key(tinyCfg(1)) {
		t.Fatal("key not deterministic")
	}
}
