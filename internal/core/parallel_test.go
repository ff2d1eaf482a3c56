package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/noise"
)

// repeatedOn is RunRepeatedContext on a pinned number of workers.
func repeatedOn(ctx context.Context, e *Experiment, sc Scenario, reps, workers int) (*Repeated, error) {
	out, err := runRepetitions(ctx, []rowTask{{e: e, sc: sc}}, reps, workers)
	if err != nil {
		return nil, err
	}
	return &out[0], nil
}

func TestParallelMatchesSequential(t *testing.T) {
	e := smallExp(t, "minife")
	sc := Scenario{
		MTBCE: 20 * nsPerMs, PerEvent: noise.Fixed(500 * nsPerUs), Target: noise.AllNodes, Seed: 7,
	}
	seq, err := repeatedOn(context.Background(), e, sc, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := repeatedOn(context.Background(), e, sc, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Sample.Values(), par.Sample.Values()) {
		t.Fatalf("parallel sample differs:\nseq %v\npar %v", seq.Sample.Values(), par.Sample.Values())
	}
	if seq.Saturated != par.Saturated {
		t.Fatal("saturation flags differ")
	}
}

func TestParallelSingleWorkerDelegates(t *testing.T) {
	e := smallExp(t, "minife")
	sc := Scenario{MTBCE: 50 * nsPerMs, PerEvent: noise.Fixed(nsPerMs), Target: noise.AllNodes, Seed: 3}
	a, err := repeatedOn(context.Background(), e, sc, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.RunRepeated(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Sample.Values(), b.Sample.Values()) {
		t.Fatal("RunRepeated diverged from a single worker")
	}
}

func TestParallelSaturationShortCircuits(t *testing.T) {
	e := smallExp(t, "minife")
	sc := Scenario{MTBCE: 10 * nsPerMs, PerEvent: noise.Fixed(133 * nsPerMs), Target: noise.AllNodes, Seed: 1}
	rep, err := repeatedOn(context.Background(), e, sc, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Saturated || rep.Sample.N() != 0 {
		t.Fatalf("saturated scenario mishandled: %+v", rep)
	}
}

func TestParallelBadReps(t *testing.T) {
	e := smallExp(t, "minife")
	if _, err := repeatedOn(context.Background(), e, Scenario{MTBCE: nsPerS, PerEvent: noise.Fixed(1)}, 0, 2); err == nil {
		t.Fatal("0 reps accepted")
	}
}

func TestParallelBitIdenticalAcrossWorkerCounts(t *testing.T) {
	e := smallExp(t, "minife")
	sc := Scenario{
		MTBCE: 15 * nsPerMs, PerEvent: noise.Fixed(300 * nsPerUs), Target: noise.AllNodes, Seed: 11,
	}
	const reps = 8
	want, err := e.RunRepeated(sc, reps)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		got, err := repeatedOn(context.Background(), e, sc, reps, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want.Sample.Values(), got.Sample.Values()) {
			t.Fatalf("workers=%d sample differs:\nseq %v\npar %v",
				workers, want.Sample.Values(), got.Sample.Values())
		}
		if want.Saturated != got.Saturated {
			t.Fatalf("workers=%d saturation flag differs", workers)
		}
	}
}

// TestParallelErrorSurfaces checks that a failing repetition returns
// its error instead of hanging the fan-out machinery.
func TestParallelErrorSurfaces(t *testing.T) {
	e := smallExp(t, "minife")
	// A negative MTBCE fails noise.Config.Validate inside every
	// repetition.
	sc := Scenario{MTBCE: -1, PerEvent: noise.Fixed(nsPerMs), Target: noise.AllNodes}
	type result struct {
		rep *Repeated
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := repeatedOn(context.Background(), e, sc, 8, 4)
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		if r.err == nil {
			t.Fatalf("failing repetition returned %+v without error", r.rep)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("failing repetition hung the parallel runner")
	}
}

func TestParallelContextCanceled(t *testing.T) {
	e := smallExp(t, "minife")
	sc := Scenario{MTBCE: 50 * nsPerMs, PerEvent: noise.Fixed(nsPerMs), Target: noise.AllNodes, Seed: 3}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := repeatedOn(ctx, e, sc, 6, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	// An unexpired context must not change results.
	rep, err := repeatedOn(context.Background(), e, sc, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := repeatedOn(context.Background(), e, sc, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Sample.Values(), rep.Sample.Values()) {
		t.Fatal("context-aware run diverged from sequential")
	}
}

func TestParallelDefaultWorkers(t *testing.T) {
	e := smallExp(t, "minife")
	sc := Scenario{MTBCE: 100 * nsPerMs, PerEvent: noise.Fixed(nsPerMs), Target: noise.AllNodes, Seed: 5}
	rep, err := e.RunRepeatedContext(context.Background(), sc, 3) // workers = GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sample.N() != 3 {
		t.Fatalf("sample size %d", rep.Sample.N())
	}
}
