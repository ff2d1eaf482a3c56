package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/netmodel"
	"repro/internal/noise"
)

func tinyCfg(seed uint64) ExperimentConfig {
	return ExperimentConfig{Workload: "minife", Nodes: 16, Iterations: 2, TraceSeed: seed}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := NewExperimentCache(0)
	var builds atomic.Int64
	release := make(chan struct{})
	c.build = func(cfg ExperimentConfig) (*Experiment, error) {
		builds.Add(1)
		<-release
		return NewExperiment(cfg)
	}

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
	waitUntil(t, "coalescing to settle", func() bool {
		s := c.Stats()
		return s.Misses == 1 && s.Coalesced == waiters-1
	})
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

func TestCachedExperimentAnswersScenarios(t *testing.T) {
	c := NewExperimentCache(0)
	exp, _, err := c.GetOrBuild(context.Background(), tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewExperiment(tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Baseline().Makespan != direct.Baseline().Makespan {
		t.Fatalf("cached baseline makespan %d != direct %d",
			exp.Baseline().Makespan, direct.Baseline().Makespan)
	}
}

// TestCanonicalNetIsOneHit: on a daemon's own cache, a configuration
// with a zero Net and the same one spelling out netmodel.CrayXC40()
// are one entry: the second lookup is a hit on the first's experiment.
func TestCanonicalNetIsOneHit(t *testing.T) {
	c := NewExperimentCache(0)
	zero := tinyCfg(1)
	explicit := zero
	explicit.Net = netmodel.CrayXC40()
	a, hit, err := c.GetOrBuild(context.Background(), zero)
	if err != nil || hit {
		t.Fatalf("zero Net: hit=%v err=%v", hit, err)
	}
	b, hit, err := c.GetOrBuild(context.Background(), explicit)
	if err != nil || !hit || a != b {
		t.Fatalf("explicit Cray XC40: hit=%v err=%v same=%v", hit, err, a == b)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v, want one miss, one hit, one entry", s)
	}
}

// TestBuilderPanicDoesNotWedgeWaiters is the "wedged cache fill" case:
// the builder panics while concurrent waiters are coalesced on its
// flight. Every waiter must get a typed error promptly instead of
// blocking forever, and a later lookup with a healthy builder must
// succeed (errors are not cached).
func TestBuilderPanicDoesNotWedgeWaiters(t *testing.T) {
	c := NewExperimentCache(0)
	entered := make(chan struct{})
	release := make(chan struct{})
	c.build = func(cfg ExperimentConfig) (*Experiment, error) {
		close(entered)
		<-release
		panic("builder exploded")
	}

	errs := make(chan error, 2)
	go func() {
		_, _, err := c.GetOrBuild(context.Background(), tinyCfg(1))
		errs <- err
	}()
	<-entered
	// Second goroutine coalesces onto the doomed flight.
	go func() {
		_, _, err := c.GetOrBuild(context.Background(), tinyCfg(1))
		errs <- err
	}()
	// Let the second lookup park on the flight, then let the builder
	// panic.
	waitUntil(t, "the second lookup to coalesce", func() bool { return c.Stats().Coalesced == 1 })
	close(release)

	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			var be *BuildError
			if !errors.As(err, &be) {
				t.Fatalf("waiter %d: %v (%T)", i, err, err)
			}
			if !be.Retryable() || be.Stack == "" || !strings.Contains(be.Stack, "goroutine") {
				t.Fatalf("build error lacks retryability or stack: %+v", be)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("waiter wedged on a panicked flight")
		}
	}

	// The failed fill left no residue: a healthy builder succeeds.
	c.build = nil
	if _, hit, err := c.GetOrBuild(context.Background(), tinyCfg(1)); err != nil || hit {
		t.Fatalf("post-panic lookup: hit=%v err=%v", hit, err)
	}
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("entries %d, want 1", n)
	}
}

// TestSharedBuilderPanicRebuilds: the process-wide cache behind
// SharedExperiment turns a panicking builder into a *BuildError that
// carries the stack, caches nothing, and builds again on the next
// lookup.
func TestSharedBuilderPanicRebuilds(t *testing.T) {
	m := withExperimentMemo(t, DefaultExperimentCacheBytes)
	m.build = func(ExperimentConfig) (*Experiment, error) { panic("builder exploded") }
	_, err := SharedExperiment(context.Background(), tinyCfg(1))
	var be *BuildError
	if !errors.As(err, &be) || !strings.Contains(be.Stack, "goroutine") || !retryableErr(err) {
		t.Fatalf("panicking shared build: %v (%T), want a retryable *BuildError with a stack", err, err)
	}
	m.build = nil
	if _, err := SharedExperiment(context.Background(), tinyCfg(1)); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats %+v, want two builds and one entry", s)
	}
}

// TestInjectedFillFaults arms the simcache.fill site and checks the
// two survivable fault kinds: an injected error surfaces as retryable
// without running the builder, and an injected panic is recovered into
// a *BuildError.
func TestInjectedFillFaults(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	c := NewExperimentCache(0)
	var builds atomic.Int64
	c.build = func(cfg ExperimentConfig) (*Experiment, error) {
		builds.Add(1)
		return NewExperiment(cfg)
	}

	// One injected error, then clean.
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteCacheFill: {Kind: faultinject.KindError, Probability: 1, Count: 1},
	}); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.GetOrBuild(context.Background(), tinyCfg(1))
	if !faultinject.IsInjected(err) {
		t.Fatalf("first fill: %v", err)
	}
	if builds.Load() != 0 {
		t.Fatal("builder ran despite the injected fill error")
	}
	if _, hit, err := c.GetOrBuild(context.Background(), tinyCfg(1)); err != nil || hit {
		t.Fatalf("retry after injected error: hit=%v err=%v", hit, err)
	}

	// An injected panic is recovered, not propagated.
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteCacheFill: {Kind: faultinject.KindPanic, Probability: 1, Count: 1},
	}); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.GetOrBuild(context.Background(), tinyCfg(2))
	var be *BuildError
	if !errors.As(err, &be) {
		t.Fatalf("injected panic surfaced as %v (%T)", err, err)
	}
	if _, ok := be.PanicValue.(faultinject.Panic); !ok {
		t.Fatalf("panic value %v (%T)", be.PanicValue, be.PanicValue)
	}
}

// TestSharedPathFillFaults: with simcache.fill armed at p=1, a figure
// run without Options.Experiments fails with a retryable error and
// leaves nothing resident, for an injected error and an injected
// panic alike; disarmed, the same call writes the unfaulted bytes. The
// reference is built off the shared cache, before anything is armed.
func TestSharedPathFillFaults(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	m := withExperimentMemo(t, DefaultExperimentCacheBytes)
	opts := tinyOpts("minife")
	cold := opts
	cold.Experiments = NewExperiment
	want, err := figureJSON(context.Background(), "4", cold)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []faultinject.Kind{faultinject.KindError, faultinject.KindPanic} {
		if err := faultinject.Arm(faultinject.Plan{
			faultinject.SiteCacheFill: {Kind: kind, Probability: 1},
		}); err != nil {
			t.Fatal(err)
		}
		_, err := RunFigure(context.Background(), "4", opts)
		if err == nil || !retryableErr(err) {
			t.Fatalf("%s at the fill: RunFigure returned %v, want a retryable error", kind, err)
		}
		if s := m.Stats(); s.Entries != 0 {
			t.Fatalf("%s at the fill: %d experiments resident, want none", kind, s.Entries)
		}
		faultinject.Disarm()
	}
	got, err := figureJSON(context.Background(), "4", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("after the faults, fig4 on the shared cache diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestWedgeRecoveryUnderConcurrency hammers a cache whose builder
// panics on a fraction of fills, checking no goroutine is ever left
// waiting and the cache converges to serving every key.
func TestWedgeRecoveryUnderConcurrency(t *testing.T) {
	c := NewExperimentCache(0)
	var calls atomic.Int64
	c.build = func(cfg ExperimentConfig) (*Experiment, error) {
		if calls.Add(1)%3 == 1 {
			panic("periodic build failure")
		}
		return NewExperiment(cfg)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				cfg := tinyCfg(uint64(k + 1))
				for attempt := 0; attempt < 10; attempt++ {
					if _, _, err := c.GetOrBuild(context.Background(), cfg); err == nil {
						return
					}
				}
				t.Errorf("goroutine %d: key %d never built", g, k)
			}
		}(g)
	}
	wg.Wait()
}

// luleshBaseline is the mid-size serving hot spot: a 64-node LULESH
// point, the shape a Fig. 4/5 sweep asks for repeatedly. The hit/miss
// pair below bounds what the daemon saves per request when the
// baseline is resident; the recorded numbers are bench/'s
// simcache.* per-layer metrics (bench/README.md).
func luleshBaseline() ExperimentConfig {
	return ExperimentConfig{Workload: "lulesh", Nodes: 64, Iterations: 8, TraceSeed: 1}
}

// BenchmarkCacheHit measures the resident-baseline lookup path:
// canonicalize, LRU touch, return. This is the per-request cache
// overhead when the daemon serves a hot (workload, nodes, iters) point.
func BenchmarkCacheHit(b *testing.B) {
	c := NewExperimentCache(0)
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
	c := NewExperimentCache(0)
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
	c := NewExperimentCache(0)
	cfg := luleshBaseline()
	if _, _, err := c.GetOrBuild(context.Background(), cfg); err != nil {
		b.Fatal(err)
	}
	sc := Scenario{
		MTBCE:    5544 * nsPerS / 64,         // exascale-cielo-x10, scale-compensated
		PerEvent: noise.Fixed(775 * nsPerUs), // software-cmci
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
