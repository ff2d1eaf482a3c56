package simcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
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
	var builds atomic.Int64
	c.SetBuilder(func(cfg core.ExperimentConfig) (*core.Experiment, error) {
		builds.Add(1)
		return core.NewExperiment(cfg)
	})
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
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times, want 1", n)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.HitRatio != 0.5 {
		t.Fatalf("stats %+v", s)
	}
	if s.SizeBytes <= 0 || s.SizeBytes > s.CapBytes {
		t.Fatalf("implausible size accounting: %+v", s)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := New(0)
	var builds atomic.Int64
	release := make(chan struct{})
	c.SetBuilder(func(cfg core.ExperimentConfig) (*core.Experiment, error) {
		builds.Add(1)
		<-release
		return core.NewExperiment(cfg)
	})

	const waiters = 4
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	hits := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, hits[i], errs[i] = c.GetOrBuild(context.Background(), tinyCfg(1))
		}(i)
	}
	// Wait until one goroutine owns the build and the rest are parked
	// on its flight, then let the build finish.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := c.Stats()
		if s.Misses == 1 && s.Coalesced == waiters-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coalescing never settled: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times, want 1", n)
	}
	var hitCount int
	for _, h := range hits {
		if h {
			hitCount++
		}
	}
	if hitCount != waiters-1 {
		t.Fatalf("%d waiters reported hits, want %d", hitCount, waiters-1)
	}
}

func TestEvictionRespectsBound(t *testing.T) {
	first, err := core.NewExperiment(tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	// Bound the cache to just over one entry so the second insert
	// evicts the first.
	c := New(Cost(first) + entryOverheadBytes/2)
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
	if _, ok := c.Get(tinyCfg(1)); ok {
		t.Fatal("evicted entry still resident")
	}
	if _, ok := c.Get(tinyCfg(2)); !ok {
		t.Fatal("most recent entry evicted")
	}
}

func TestLRUOrderSurvivesTouches(t *testing.T) {
	exp, err := core.NewExperiment(tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	// Room for two entries; touching the older one should make the
	// middle one the eviction victim.
	c := New(2*Cost(exp) + entryOverheadBytes)
	ctx := context.Background()
	for _, seed := range []uint64{1, 2} {
		if _, _, err := c.GetOrBuild(ctx, tinyCfg(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(tinyCfg(1)); !ok { // touch 1: order is now [1, 2]
		t.Fatal("entry 1 missing before touch test")
	}
	if _, _, err := c.GetOrBuild(ctx, tinyCfg(3)); err != nil { // evicts 2
		t.Fatal(err)
	}
	if _, ok := c.Get(tinyCfg(2)); ok {
		t.Fatal("least recently used entry survived")
	}
	if _, ok := c.Get(tinyCfg(1)); !ok {
		t.Fatal("recently touched entry evicted")
	}
}

func TestBuilderErrorNotCached(t *testing.T) {
	c := New(0)
	fail := true
	c.SetBuilder(func(cfg core.ExperimentConfig) (*core.Experiment, error) {
		if fail {
			return nil, errors.New("transient")
		}
		return core.NewExperiment(cfg)
	})
	ctx := context.Background()
	if _, _, err := c.GetOrBuild(ctx, tinyCfg(1)); err == nil {
		t.Fatal("builder error swallowed")
	}
	fail = false
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

func TestCachedExperimentAnswersScenarios(t *testing.T) {
	c := New(0)
	exp, _, err := c.GetOrBuild(context.Background(), tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.NewExperiment(tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Baseline().Makespan != direct.Baseline().Makespan {
		t.Fatalf("cached baseline makespan %d != direct %d",
			exp.Baseline().Makespan, direct.Baseline().Makespan)
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
