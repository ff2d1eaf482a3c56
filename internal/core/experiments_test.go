package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// withExperimentMemo replaces the process-wide experiment cache with
// an empty one bounded to capBytes until the test ends, so the test
// counts only its own builds.
func withExperimentMemo(t *testing.T, capBytes int64) *ExperimentCache {
	t.Helper()
	old := experiments
	experiments = NewExperimentCache(capBytes)
	t.Cleanup(func() { experiments = old })
	return experiments
}

// waitUntil polls cond until it holds, failing the test after ten
// seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// figureJSON runs figure id ("surface" for a small overhead surface)
// under opts and returns its WriteJSON bytes.
func figureJSON(ctx context.Context, id string, opts Options) ([]byte, error) {
	var f *Figure
	var err error
	if id == "surface" {
		f, _, err = Surface(ctx, opts, opts.Workloads[0],
			[]int64{200 * nsPerMs, 200 * nsPerS}, []int64{150, 775 * nsPerUs, 133 * nsPerMs})
	} else {
		f, err = RunFigure(ctx, id, opts)
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = f.WriteJSON(&buf)
	return buf.Bytes(), err
}

// TestDefaultProviderBuildsEachConfigOnce: Figs. 3-9 and a surface for
// one workload at two node counts, with no Options.Experiments, build
// each distinct configuration once, and every figure writes the bytes
// it writes when each figure builds its own experiments. A canonical
// spelling of a configuration a figure built finds it resident.
func TestDefaultProviderBuildsEachConfigOnce(t *testing.T) {
	m := withExperimentMemo(t, DefaultExperimentCacheBytes)
	distinct := map[ExperimentConfig]bool{}
	cold := func(cfg ExperimentConfig) (*Experiment, error) {
		distinct[cfg.Canonical()] = true
		return NewExperiment(cfg)
	}
	ids := append(FigureIDs(), "surface")
	for _, nodes := range []int{8, 16} {
		opts := tinyOpts("minife")
		opts.Nodes = nodes
		coldOpts := opts
		coldOpts.Experiments = cold
		for _, id := range ids {
			want, err := figureJSON(context.Background(), id, coldOpts)
			if err != nil {
				t.Fatalf("%s/n%d with NewExperiment: %v", id, nodes, err)
			}
			got, err := figureJSON(context.Background(), id, opts)
			if err != nil {
				t.Fatalf("%s/n%d on the memo: %v", id, nodes, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s/n%d: memo-served experiment diverges from NewExperiment's:\n%s\nvs\n%s", id, nodes, got, want)
			}
		}
	}
	st := m.Stats()
	if st.Misses != uint64(len(distinct)) || st.Entries != len(distinct) {
		t.Fatalf("%d builds and %d entries for %d runs over %d distinct configurations",
			st.Misses, st.Entries, 2*len(ids), len(distinct))
	}
	for cfg := range distinct {
		if _, err := SharedExperiment(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Stats().Misses; got != st.Misses {
		t.Fatalf("canonical configurations the figures built missed the memo: %d builds, want %d", got, st.Misses)
	}
}

// TestConcurrentFiguresCoalesce: with minife's build held in flight,
// two RunFigure calls for minife wait on it instead of building their
// own, and a third whose context ends while it waits returns at once.
func TestConcurrentFiguresCoalesce(t *testing.T) {
	m := withExperimentMemo(t, DefaultExperimentCacheBytes)
	opts := tinyOpts("minife")
	cfg := ExperimentConfig{Workload: "minife", Nodes: opts.Nodes, Iterations: opts.Iterations, TraceSeed: opts.Seed}
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) }) // a failed test still ends the build
	m.build = func(cfg ExperimentConfig) (*Experiment, error) {
		<-release
		return NewExperiment(cfg)
	}
	held := make(chan error, 1)
	go func() {
		_, _, err := m.GetOrBuild(context.Background(), cfg)
		held <- err
	}()
	waitUntil(t, "the held build", func() bool { return m.Stats().Misses == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	expired := make(chan error, 1)
	go func() {
		_, err := RunFigure(ctx, "4", opts)
		expired <- err
	}()
	waitUntil(t, "the first waiter", func() bool { return m.Stats().Coalesced == 1 })
	cancel()
	select {
	case err := <-expired:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter whose context ended: %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a waiter whose context ended is still blocked on the held build")
	}

	ids := []string{"4", "5"}
	outs := make([][]byte, len(ids))
	errs := make([]error, len(ids))
	done := make(chan struct{}, len(ids))
	for i, id := range ids {
		go func() {
			outs[i], errs[i] = figureJSON(context.Background(), id, opts)
			done <- struct{}{}
		}()
	}
	waitUntil(t, "both figures to wait", func() bool { return m.Stats().Coalesced == 3 })
	once.Do(func() { close(release) })
	for range ids {
		<-done
	}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("%d builds and %d entries for concurrent figures of one workload, want 1 and 1", st.Misses, st.Entries)
	}
	cold := opts
	cold.Experiments = NewExperiment
	for i, id := range ids {
		if errs[i] != nil {
			t.Fatalf("fig%s: %v", id, errs[i])
		}
		want, err := figureJSON(context.Background(), id, cold)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(outs[i], want) {
			t.Fatalf("fig%s on the coalesced build diverges from NewExperiment's", id)
		}
	}
}

// TestExperimentMemoBounded: the memo's charged size stays within its
// bound while it holds more than one experiment, evicting the least
// recently used, and keeps the newest even when it alone exceeds the
// bound. Each entry is charged what the experiment reports holding.
func TestExperimentMemoBounded(t *testing.T) {
	cfg := ExperimentConfig{Workload: "minife", Nodes: 16, Iterations: 2, TraceSeed: 1}
	one, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, capBytes := range []int64{5 * one.SizeBytes() / 2, 1} {
		m := withExperimentMemo(t, capBytes)
		for seed := uint64(1); seed <= 6; seed++ {
			opts := tinyOpts("minife")
			opts.Seed = seed
			if _, err := RunFigure(context.Background(), "4", opts); err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			if st.SizeBytes > capBytes && st.Entries > 1 {
				t.Fatalf("cap %d B: %d entries charged %d B after seed %d", capBytes, st.Entries, st.SizeBytes, seed)
			}
			if st.Entries == 0 {
				t.Fatalf("cap %d B: the newest experiment was not kept", capBytes)
			}
		}
		if st := m.Stats(); st.Evictions == 0 || st.Misses != 6 {
			t.Fatalf("cap %d B: %d builds and %d evictions for six configurations", capBytes, st.Misses, st.Evictions)
		}
	}
	m := withExperimentMemo(t, DefaultExperimentCacheBytes)
	e, err := SharedExperiment(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().SizeBytes; got != e.SizeBytes() || got != one.SizeBytes() {
		t.Fatalf("entry charged %d B, the experiment reports %d B (a fresh build %d B)", got, e.SizeBytes(), one.SizeBytes())
	}
}
