package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/noise"
)

// chaosScenario is a cheap, non-saturating CE scenario for the
// injection tests.
func chaosScenario() Scenario {
	return Scenario{
		MTBCE:    20 * 1000 * 1000, // 20 ms
		PerEvent: noise.Fixed(500 * 1000),
		Target:   noise.AllNodes,
		Seed:     2,
	}
}

// TestRepetitionPanicRetriedBitIdentical arms the core.repetition site
// with a three-panic budget and checks the repeated-run sample is
// bit-identical to an unfaulted run: retried repetitions re-use their
// seed, so faults are invisible in the results. The budget (3) stays
// below the per-repetition attempt bound (4), so the run can never
// exhaust its retries no matter how the fires land — the test is
// deterministic even on the parallel path.
func TestRepetitionPanicRetriedBitIdentical(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	e := smallExp(t, "minife")
	sc := chaosScenario()
	const reps = 8
	panicBudget := faultinject.Plan{
		faultinject.SiteRepetition: {Kind: faultinject.KindPanic, Probability: 1, Count: 3},
	}

	want, err := e.RunRepeated(sc, reps)
	if err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Arm(panicBudget); err != nil {
		t.Fatal(err)
	}
	got, err := e.RunRepeated(sc, reps)
	if err != nil {
		t.Fatalf("faulted run failed: %v", err)
	}
	if got.RetriedReps != 3 {
		t.Fatalf("RetriedReps = %d, want 3 (one per budgeted panic)", got.RetriedReps)
	}
	if got.Sample.N() != want.Sample.N() {
		t.Fatalf("sample sizes differ: %d vs %d", got.Sample.N(), want.Sample.N())
	}
	gs, ws := got.Sample.Summarize(), want.Sample.Summarize()
	if gs.Mean != ws.Mean || gs.Min != ws.Min || gs.Max != ws.Max {
		t.Fatalf("faulted sample diverged: %+v vs %+v", gs, ws)
	}

	// Parallel path under a fresh budget: same sample again.
	if err := faultinject.Arm(panicBudget); err != nil {
		t.Fatal(err)
	}
	gotPar, err := e.RunRepeatedParallel(sc, reps, 4)
	if err != nil {
		t.Fatalf("faulted parallel run failed: %v", err)
	}
	ps := gotPar.Sample.Summarize()
	if ps.Mean != ws.Mean || gotPar.Sample.N() != want.Sample.N() {
		t.Fatalf("parallel faulted sample diverged: %+v vs %+v", ps, ws)
	}
	if gotPar.RetriedReps != 3 {
		t.Fatalf("parallel RetriedReps = %d, want 3", gotPar.RetriedReps)
	}
}

// TestRepetitionErrorRetried checks injected (retryable) errors heal
// the same way panics do, in both repetition loops.
func TestRepetitionErrorRetried(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	e := smallExp(t, "minife")
	sc := chaosScenario()

	want, err := e.RunRepeated(sc, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteRepetition: {Kind: faultinject.KindError, Probability: 1, Count: 3},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := e.RunRepeatedParallel(sc, 6, 3)
	if err != nil {
		t.Fatalf("faulted run failed: %v", err)
	}
	if got.RetriedReps != 3 {
		t.Fatalf("RetriedReps = %d, want 3", got.RetriedReps)
	}
	if got.Sample.Summarize().Mean != want.Sample.Summarize().Mean {
		t.Fatal("sample diverged under injected errors")
	}
}

// TestPersistentRepetitionFailureSurfaces arms p=1 so every attempt of
// every repetition fails: the bounded retry budget must exhaust and
// surface a typed *RepetitionError rather than loop forever.
func TestPersistentRepetitionFailureSurfaces(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	e := smallExp(t, "minife")
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteRepetition: {Kind: faultinject.KindPanic, Probability: 1},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := e.RunRepeated(chaosScenario(), 2)
	var re *RepetitionError
	if !errors.As(err, &re) {
		t.Fatalf("persistent faults surfaced as %v (%T)", err, err)
	}
	if re.PanicValue == nil || !strings.Contains(re.Stack, "goroutine") {
		t.Fatalf("repetition error lacks panic capture: %+v", re)
	}
	faultinject.Disarm()
	// The experiment (and its idle run states) still works afterwards.
	if _, err := e.RunRepeated(chaosScenario(), 2); err != nil {
		t.Fatalf("experiment wedged after persistent faults: %v", err)
	}
}

// TestSaturatedRepsAccountingWithRetries covers the satellite case:
// repetitions of a saturating scenario are retried by fault injection,
// and the Sample.N() + SaturatedReps == Reps invariant must hold with
// each repetition counted exactly once despite the extra attempts.
func TestSaturatedRepsAccountingWithRetries(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	e := smallExp(t, "minife")
	// Load >= 1: every repetition saturates analytically.
	satSc := Scenario{
		MTBCE:    1000 * 1000,                    // 1 ms between CEs
		PerEvent: noise.Fixed(133 * 1000 * 1000), // 133 ms each
		Target:   noise.AllNodes,
		Seed:     2,
	}
	// A three-error budget below the 4-attempt bound: retries always
	// happen, the run can never fail, regardless of scheduling.
	errBudget := faultinject.Plan{
		faultinject.SiteRepetition: {Kind: faultinject.KindError, Probability: 1, Count: 3},
	}
	const reps = 8
	for name, run := range map[string]func() (*Repeated, error){
		"sequential": func() (*Repeated, error) { return e.RunRepeated(satSc, reps) },
		"parallel":   func() (*Repeated, error) { return e.RunRepeatedParallel(satSc, reps, 4) },
	} {
		if err := faultinject.Arm(errBudget); err != nil {
			t.Fatal(err)
		}
		rep, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.RetriedReps != 3 {
			t.Fatalf("%s: RetriedReps = %d, want 3", name, rep.RetriedReps)
		}
		if rep.Reps != reps || rep.SaturatedReps != reps || rep.Sample.N() != 0 {
			t.Fatalf("%s: retried saturated reps double-counted: reps=%d sat=%d n=%d",
				name, rep.Reps, rep.SaturatedReps, rep.Sample.N())
		}
		if !rep.Saturated {
			t.Fatalf("%s: saturation flag lost", name)
		}
	}

	// Mixed case: a non-saturating scenario under a fresh budget keeps
	// the invariant with a full sample.
	if err := faultinject.Arm(errBudget); err != nil {
		t.Fatal(err)
	}
	rep, err := e.RunRepeatedParallel(chaosScenario(), reps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sample.N()+rep.SaturatedReps != rep.Reps || rep.Reps != reps {
		t.Fatalf("invariant broken: n=%d sat=%d reps=%d", rep.Sample.N(), rep.SaturatedReps, rep.Reps)
	}
}

// TestInjectedCancelStopsRun checks cancel-kind faults follow the
// cancellation path — the run stops with context.Canceled instead of
// burning the retry budget.
func TestInjectedCancelStopsRun(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	e := smallExp(t, "minife")
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteRepetition: {Kind: faultinject.KindCancel, Probability: 1, Count: 1},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := e.RunRepeated(chaosScenario(), 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel fault surfaced as %v", err)
	}
	if s := faultinject.Snapshot(); len(s.Sites) != 1 || s.Sites[0].Fired != 1 {
		t.Fatalf("cancel retried: %+v", s)
	}
}
