package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// fanOut calls task(0) … task(n-1), each exactly once, on up to workers
// goroutines — the caller is one of them, and no more are started than
// there are tasks. Tasks are handed out in index order and write their
// results into slots the caller indexes by task, so what the caller
// folds afterwards does not depend on which goroutine ran what. The
// first failure, or ctx ending, stops the hand-out; fanOut returns once
// every started goroutine has finished its task and exited, with the
// error of the lowest-indexed task that failed.
func fanOut(ctx context.Context, n, workers int, task func(i int) error) error {
	var (
		next     atomic.Int64
		stopped  atomic.Bool
		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	work := func() {
		for !stopped.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			err := ctx.Err()
			if err == nil {
				err = task(i)
			}
			if err != nil {
				stopped.Store(true)
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr
}

// rowTask is one repeated scenario of a fan-out: the experiment it runs
// on and, for the figure drivers, the row it fills.
type rowTask struct {
	e   *Experiment
	sc  Scenario
	row Row
}

// repOutcome is what a repetition leaves in its slot: the fold needs no
// more, and the per-rank results of a figure's worth of repetitions are
// not kept alive waiting for it.
type repOutcome struct {
	slowdownPct float64
	saturated   bool
	retried     int
}

// runRepetitions runs reps seeded repetitions of every task — seeds
// sc.Seed, sc.Seed+1, … — as one flat list over workers goroutines, and
// folds each task's outcomes in seed order, so the aggregates are
// bit-identical at any worker count.
func runRepetitions(ctx context.Context, tasks []rowTask, reps, workers int) ([]Repeated, error) {
	if reps < 1 {
		return nil, fmt.Errorf("core: reps must be >= 1, got %d", reps)
	}
	slots := make([]repOutcome, len(tasks)*reps)
	err := fanOut(ctx, len(slots), workers, func(i int) error {
		t := &tasks[i/reps]
		sc := t.sc
		sc.Seed += uint64(i % reps)
		res, retried, err := t.e.runRep(ctx, sc)
		if err != nil {
			return err
		}
		slots[i] = repOutcome{slowdownPct: res.SlowdownPct, saturated: res.Saturated, retried: retried}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Repeated, len(tasks))
	for i, o := range slots {
		out[i/reps].add(o)
	}
	return out, nil
}

// RunRepeatedContext runs the scenario reps times with seeds sc.Seed,
// sc.Seed+1, ... fanned out over GOMAXPROCS goroutines sharing the
// experiment's compiled program, and collects the slowdown sample in
// seed order, so it is bit-identical at any GOMAXPROCS. Cancellation or
// deadline expiry is observed between repetitions and surfaces as
// ctx.Err(). See Repeated for the saturation semantics.
func (e *Experiment) RunRepeatedContext(ctx context.Context, sc Scenario, reps int) (*Repeated, error) {
	out, err := runRepetitions(ctx, []rowTask{{e: e, sc: sc}}, reps, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	return &out[0], nil
}
