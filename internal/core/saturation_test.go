package core

// Tests for the saturation-sample semantics: repetitions that saturate
// (analytically via the load factor, or at runtime when a work interval
// hits the CE saturation bound) are excluded from the slowdown Sample
// and tallied in SaturatedReps, so partial saturation no longer biases
// the reported statistics. Invariant: Sample.N() + SaturatedReps == Reps.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/noise"
)

// mixedSatScenario sits just under the analytic saturation point
// (rho = 133/135 ≈ 0.985): the load factor passes the pre-check, but
// the renewal race inside the CE model pushes some seeds over the
// runtime saturation bound while others finish cleanly. With Seed 1
// and 6 reps (seeds 1..6) the mix is deterministic.
func mixedSatScenario() Scenario {
	return Scenario{
		MTBCE: 135 * nsPerMs, PerEvent: noise.Fixed(133 * nsPerMs),
		Target: noise.AllNodes, Seed: 1,
	}
}

func TestRunRepeatedMixedSaturationExcludedFromSample(t *testing.T) {
	e := smallExp(t, "minife")
	const reps = 6
	rep, err := e.RunRepeated(mixedSatScenario(), reps)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reps != reps {
		t.Fatalf("Reps = %d, want %d", rep.Reps, reps)
	}
	if rep.SaturatedReps == 0 || rep.SaturatedReps == reps {
		t.Fatalf("expected a mix of saturated and clean reps, got %d/%d saturated",
			rep.SaturatedReps, reps)
	}
	if !rep.Saturated {
		t.Fatal("Saturated flag unset despite saturated repetitions")
	}
	if rep.Sample.N()+rep.SaturatedReps != rep.Reps {
		t.Fatalf("invariant violated: Sample.N()=%d + SaturatedReps=%d != Reps=%d",
			rep.Sample.N(), rep.SaturatedReps, rep.Reps)
	}
	// The sample must hold exactly the slowdowns of the non-saturated
	// individual runs, in seed order — saturated reps contribute nothing.
	sc := mixedSatScenario()
	var want []float64
	for i := 0; i < reps; i++ {
		sci := sc
		sci.Seed = sc.Seed + uint64(i)
		res, err := e.Run(sci)
		if err != nil {
			t.Fatalf("rep %d: %v", i, err)
		}
		if !res.Saturated {
			want = append(want, res.SlowdownPct)
		}
	}
	if got := rep.Sample.Values(); !reflect.DeepEqual(got, want) {
		t.Fatalf("sample holds wrong values:\ngot  %v\nwant %v", got, want)
	}
}

func TestRunRepeatedAllSaturatedAnalytic(t *testing.T) {
	e := smallExp(t, "minife")
	const reps = 4
	// Load factor 133/100 = 1.33 >= 1: every repetition saturates
	// analytically, without simulating.
	rep, err := e.RunRepeated(Scenario{
		MTBCE: 100 * nsPerMs, PerEvent: noise.Fixed(133 * nsPerMs),
		Target: noise.AllNodes, Seed: 1,
	}, reps)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Saturated || rep.SaturatedReps != reps || rep.Reps != reps {
		t.Fatalf("all-saturated sweep mis-tallied: %+v", rep)
	}
	if rep.Sample.N() != 0 {
		t.Fatalf("saturated reps leaked into sample: N=%d values=%v",
			rep.Sample.N(), rep.Sample.Values())
	}
	if _, err := rep.Sample.Quantile(50); err == nil {
		t.Fatal("quantile of empty sample did not error")
	}
}

func TestRunRepeatedParallelMixedSaturationParity(t *testing.T) {
	e := smallExp(t, "minife")
	const reps = 6
	seq, err := repeatedOn(context.Background(), e, mixedSatScenario(), reps, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		par, err := repeatedOn(context.Background(), e, mixedSatScenario(), reps, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(seq.Sample.Values(), par.Sample.Values()) {
			t.Fatalf("workers=%d: sample diverged:\nseq %v\npar %v",
				workers, seq.Sample.Values(), par.Sample.Values())
		}
		if par.SaturatedReps != seq.SaturatedReps || par.Reps != seq.Reps ||
			par.Saturated != seq.Saturated {
			t.Fatalf("workers=%d: saturation tallies diverged: seq %+v par %+v",
				workers, seq, par)
		}
	}
}
