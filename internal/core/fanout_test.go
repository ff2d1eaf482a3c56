package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/loggopsim"
	"repro/internal/memo"
	"repro/internal/noise"
	"repro/internal/rng"
)

// withProcs runs fn at the given GOMAXPROCS and restores the setting.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestFiguresBitIdenticalAcrossGOMAXPROCS is the fan-out's contract:
// every figure driver renders byte-identical JSON whether its rows and
// repetitions run on one goroutine or spread over eight. Two workloads
// cover both trace shapes, two node counts both scale-compensation
// factors. Part of engine-smoke, so it also runs under the race
// detector.
func TestFiguresBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	figs := Figures()
	for _, id := range []string{"3", "4", "5", "6", "7", "8", "9"} {
		for _, wl := range []string{"minife", "lammps-crack"} {
			for _, nodes := range []int{8, 16} {
				opts := tinyOpts(wl)
				opts.Nodes = nodes
				var want []byte
				for _, procs := range []int{1, 2, 8} {
					var got bytes.Buffer
					var err error
					withProcs(procs, func() {
						var f *Figure
						if f, err = figs[id](opts); err == nil {
							err = f.WriteJSON(&got)
						}
					})
					if err != nil {
						t.Fatalf("fig%s/%s/n%d at GOMAXPROCS=%d: %v", id, wl, nodes, procs, err)
					}
					if want == nil {
						want = got.Bytes()
					} else if !bytes.Equal(want, got.Bytes()) {
						t.Fatalf("fig%s/%s/n%d: GOMAXPROCS=%d diverges from GOMAXPROCS=1:\n%s\nvs\n%s",
							id, wl, nodes, procs, got.Bytes(), want)
					}
				}
			}
		}
	}
}

// TestStormPerEventsBitIdenticalAcrossGOMAXPROCS bypasses the memo: the
// eight storms land in their slots in the same order however many
// goroutines ran them.
func TestStormPerEventsBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	var want []fig9PerEvent
	for _, procs := range []int{1, 8} {
		var got []fig9PerEvent
		var err error
		withProcs(procs, func() { got, err = stormPerEvents(context.Background(), 3) })
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(want, got) {
			t.Fatalf("GOMAXPROCS=%d: %+v, want %+v", procs, got, want)
		}
	}
}

// settledGoroutines waits for goroutines that have signalled completion
// to finish exiting, then reports the count.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// TestFanOutStartsNoIdleGoroutines: with more workers than tasks only
// tasks-1 goroutines start beside the caller, and none outlives the
// call.
func TestFanOutStartsNoIdleGoroutines(t *testing.T) {
	const tasks = 3
	base := runtime.NumGoroutine()
	var (
		barrier sync.WaitGroup
		peak    atomic.Int64
		ran     [tasks]atomic.Int64
	)
	barrier.Add(tasks)
	err := fanOut(context.Background(), tasks, 64, func(i int) error {
		// Every task is in flight at once, each on its own goroutine,
		// when the count is taken.
		barrier.Done()
		barrier.Wait()
		if n := int64(runtime.NumGoroutine()); n > peak.Load() {
			peak.Store(n)
		}
		ran[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("task %d ran %d times", i, n)
		}
	}
	if got, want := peak.Load(), int64(base+tasks-1); got > want {
		t.Fatalf("%d goroutines during a %d-task fan-out from a base of %d, want at most %d", got, tasks, base, want)
	}
	if got := settledGoroutines(base); got > base {
		t.Fatalf("%d goroutines after fanOut returned, %d before", got, base)
	}
}

// TestFanOutCancelStopsHandOut: once the context ends no further task
// is started, the in-flight ones finish, and every goroutine is gone
// when fanOut returns. The first four tasks hold their four workers
// until task 0 cancels, so exactly four tasks run.
func TestFanOutCancelStopsHandOut(t *testing.T) {
	const workers = 4
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{}, workers)
	var ran atomic.Int64
	err := fanOut(ctx, 64, workers, func(i int) error {
		ran.Add(1)
		if i == 0 {
			for w := 1; w < workers; w++ {
				<-started
			}
			cancel()
			return ctx.Err()
		}
		started <- struct{}{}
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != workers {
		t.Fatalf("%d tasks ran, want the %d in flight at cancellation", n, workers)
	}
	if got := settledGoroutines(base); got > base {
		t.Fatalf("%d goroutines after a cancelled fanOut, %d before", got, base)
	}
}

// TestFanOutErrorStopsHandOut: a failing task stops the hand-out, the
// lowest-indexed failure is the one reported, and no goroutine is left.
func TestFanOutErrorStopsHandOut(t *testing.T) {
	const n = 1 << 16
	base := runtime.NumGoroutine()
	var ran atomic.Int64
	err := fanOut(context.Background(), n, 4, func(i int) error {
		ran.Add(1)
		if i == 2 || i == 3 {
			return fmt.Errorf("task %d", i)
		}
		return nil
	})
	// Task 2 is handed out before task 3, so it always runs and fails.
	if err == nil || err.Error() != "task 2" {
		t.Fatalf("err = %v, want task 2's", err)
	}
	if got := ran.Load(); got == n {
		t.Fatalf("all %d tasks ran after a failure", n)
	}
	if got := settledGoroutines(base); got > base {
		t.Fatalf("%d goroutines after a failed fanOut, %d before", got, base)
	}
}

// TestRunRepeatedParallelMoreWorkersThanReps: the worker count is a
// ceiling, not a demand; the sample is the sequential one and nothing
// is left running.
func TestRunRepeatedParallelMoreWorkersThanReps(t *testing.T) {
	e := smallExp(t, "minife")
	sc := chaosScenario()
	want, err := e.RunRepeated(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	got, err := e.RunRepeatedParallelContext(context.Background(), sc, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Sample.Values(), got.Sample.Values()) {
		t.Fatalf("sample %v, want %v", got.Sample.Values(), want.Sample.Values())
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after the run, %d before", n, base)
	}
}

func idleSims(e *Experiment) []*loggopsim.Simulator {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*loggopsim.Simulator(nil), e.idle...)
}

// panicOnce is an arrival process whose at-th gap draw, counted over
// every run that shares it, panics.
type panicOnce struct {
	noise.Arrivals
	at    int64
	draws atomic.Int64
}

func (p *panicOnce) NextGap(src *rng.Source, state *uint64) int64 {
	if p.draws.Add(1) == p.at {
		panic("injected mid-run")
	}
	return p.Arrivals.NextGap(src, state)
}

// TestPanickedRunStateIsDropped: the run state a repetition panicked
// on may be mid-run, so it never goes back on the idle list; the retry
// runs on another. The panic comes from the first draw after every
// rank's stream has started, inside Simulator.Run.
func TestPanickedRunStateIsDropped(t *testing.T) {
	e := smallExp(t, "minife")
	before := idleSims(e)
	if len(before) != 1 {
		t.Fatalf("a fresh experiment has %d idle run states, want the baseline's", len(before))
	}
	sc := chaosScenario()
	sc.Arrivals = &panicOnce{Arrivals: noise.Poisson(sc.MTBCE), at: int64(e.Ranks()) + 1}
	rep, err := e.RunRepeated(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RetriedReps != 1 {
		t.Fatalf("RetriedReps = %d, want 1", rep.RetriedReps)
	}
	after := idleSims(e)
	if len(after) != 1 {
		t.Fatalf("%d idle run states after a sequential run, want 1", len(after))
	}
	if after[0] == before[0] {
		t.Fatal("the run state the first attempt panicked on is back on the idle list")
	}
}

// TestIdleRunStatesBounded: however many run states were in use at
// once, no more than GOMAXPROCS are kept.
func TestIdleRunStatesBounded(t *testing.T) {
	e := smallExp(t, "minife")
	withProcs(2, func() {
		held := make([]*loggopsim.Simulator, 5)
		for i := range held {
			held[i] = e.acquireSim()
		}
		for _, sim := range held {
			e.releaseSim(sim)
		}
		if n := len(idleSims(e)); n != 2 {
			t.Errorf("%d idle run states after releasing 5 at GOMAXPROCS=2, want 2", n)
		}
		if _, err := e.RunRepeatedParallel(chaosScenario(), 16, 8); err != nil {
			t.Error(err)
		}
		if n := len(idleSims(e)); n > 2 {
			t.Errorf("%d idle run states after an 8-worker run at GOMAXPROCS=2, want at most 2", n)
		}
	})
}

// TestStormMemoCoalescesAndIsBounded: concurrent callers for one seed
// share one computation, and the memo holds its bound of seeds,
// forgetting the least recently used.
func TestStormMemoCoalescesAndIsBounded(t *testing.T) {
	var computed atomic.Int64
	release := make(chan struct{})
	const bound = 3
	m := memo.New[uint64, []fig9PerEvent](bound, nil)
	compute := func(_ context.Context, seed uint64) ([]fig9PerEvent, error) {
		computed.Add(1)
		<-release
		return []fig9PerEvent{{nanos: int64(seed)}}, nil
	}
	const callers = 8
	outs := make([][]fig9PerEvent, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var err error
			if outs[c], err = stormCosts(context.Background(), m, 7, compute); err != nil {
				t.Error(err)
			}
		}(c)
	}
	close(release)
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("%d computations for %d concurrent callers of one seed", n, callers)
	}
	for c := range outs {
		if len(outs[c]) != 1 || &outs[c][0] != &outs[0][0] {
			t.Fatalf("caller %d did not get the shared result", c)
		}
	}

	for seed := uint64(8); seed <= 12; seed++ {
		if _, err := stormCosts(context.Background(), m, seed, compute); err != nil {
			t.Fatal(err)
		}
		if n := m.Len(); n > bound {
			t.Fatalf("memo holds %d seeds, bound %d", n, bound)
		}
	}
	before := computed.Load()
	if _, err := stormCosts(context.Background(), m, 12, compute); err != nil { // newest: still held
		t.Fatal(err)
	}
	if _, err := stormCosts(context.Background(), m, 7, compute); err != nil { // oldest: dropped, recomputed
		t.Fatal(err)
	}
	if got := computed.Load() - before; got != 1 {
		t.Fatalf("%d computations re-asking a held and a dropped seed, want 1", got)
	}
}

// TestStormMemoRebuildsAfterPanic: a storm computation that panics
// under a job whose worker recovers and retries (jobs.attempt) must be
// run again by the retry — not answered with no rows and no error.
func TestStormMemoRebuildsAfterPanic(t *testing.T) {
	m := memo.New[uint64, []fig9PerEvent](16, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("storm panic did not reach the caller")
			}
		}()
		stormCosts(context.Background(), m, 7, func(context.Context, uint64) ([]fig9PerEvent, error) { panic("injected") })
	}()
	out, err := stormCosts(context.Background(), m, 7, func(_ context.Context, seed uint64) ([]fig9PerEvent, error) {
		return []fig9PerEvent{{nanos: int64(seed)}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].nanos != 7 {
		t.Fatalf("retry after the panic returned %+v, want the recomputed costs", out)
	}
}

// TestFig9PerEventsConcurrentCallersShare drives the real memo: the
// cells of a sharded Fig. 9 asking at once get one shared slice.
func TestFig9PerEventsConcurrentCallersShare(t *testing.T) {
	const callers = 4
	outs := make([][]fig9PerEvent, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var err error
			if outs[c], err = stormCosts(context.Background(), fig9Memo, 5, stormPerEvents); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	want, err := stormPerEvents(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for c := range outs {
		if len(outs[c]) == 0 || &outs[c][0] != &outs[0][0] {
			t.Fatalf("caller %d computed its own per-event costs", c)
		}
	}
	if !reflect.DeepEqual(outs[0], want) {
		t.Fatalf("memoized %+v, direct %+v", outs[0], want)
	}
}

// TestRunFigureCancelMidFigure: a context that ends while repetitions
// are in flight — every one of them stalled inside the repetition fault
// site — stops the figure promptly with context.Canceled, no figure and
// no goroutine left, for a Poisson figure and for Fig. 9, whose storm
// costs are fetched under the same context first.
func TestRunFigureCancelMidFigure(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	for _, id := range []string{"4", "9"} {
		if err := faultinject.Arm(faultinject.Plan{
			faultinject.SiteRepetition: {Kind: faultinject.KindDelay, Probability: 1, DelayNanos: int64(time.Minute)},
		}); err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			for faultinject.Snapshot().Sites[0].Fired == 0 {
				time.Sleep(time.Millisecond)
			}
			cancel()
		}()
		start := time.Now()
		f, err := RunFigure(ctx, id, tinyOpts("minife"))
		if !errors.Is(err, context.Canceled) || f != nil {
			t.Fatalf("fig%s: got (%v, %v), want no figure and context.Canceled", id, f, err)
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Fatalf("fig%s: cancellation took %s with every repetition stalled for a minute", id, took)
		}
		if got := settledGoroutines(base); got > base {
			t.Fatalf("fig%s: %d goroutines after the cancelled figure, %d before", id, got, base)
		}
	}
}
