package core

import (
	"testing"

	"repro/internal/netmodel"
	"repro/internal/noise"
)

func smallExp(t *testing.T, workload string) *Experiment {
	t.Helper()
	e, err := NewExperiment(ExperimentConfig{
		Workload: workload, Nodes: 16, Iterations: 3, TraceSeed: 1,
	})
	if err != nil {
		t.Fatalf("experiment: %v", err)
	}
	return e
}

func TestNewExperimentBadArgs(t *testing.T) {
	if _, err := NewExperiment(ExperimentConfig{Workload: "hpcg", Nodes: 1, Iterations: 1}); err == nil {
		t.Fatal("1 node accepted")
	}
	if _, err := NewExperiment(ExperimentConfig{Workload: "hpcg", Nodes: 8, Iterations: 0}); err == nil {
		t.Fatal("0 iterations accepted")
	}
	if _, err := NewExperiment(ExperimentConfig{Workload: "no-such", Nodes: 8, Iterations: 1}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestBaselineIsCEFree(t *testing.T) {
	e := smallExp(t, "minife")
	if e.Baseline().Makespan <= 0 {
		t.Fatal("baseline makespan not positive")
	}
	if e.Ranks() != 16 {
		t.Fatalf("ranks = %d, want 16", e.Ranks())
	}
}

func TestLULESHRanksAdjusted(t *testing.T) {
	e, err := NewExperiment(ExperimentConfig{Workload: "lulesh", Nodes: 30, Iterations: 2, TraceSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.Ranks() != 27 {
		t.Fatalf("lulesh at 30 target = %d ranks, want 27", e.Ranks())
	}
}

func TestRunNoNoiseConfigRejected(t *testing.T) {
	e := smallExp(t, "minife")
	if _, err := e.Run(Scenario{MTBCE: 0, PerEvent: noise.Fixed(1)}); err == nil {
		t.Fatal("zero MTBCE accepted")
	}
	if _, err := e.Run(Scenario{MTBCE: 1e9, PerEvent: nil}); err == nil {
		t.Fatal("nil duration accepted")
	}
}

func TestRunProducesNonNegativeSlowdown(t *testing.T) {
	e := smallExp(t, "minife")
	res, err := e.Run(Scenario{
		MTBCE: 50 * nsPerMs, PerEvent: noise.Fixed(1 * nsPerMs), Target: noise.AllNodes, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SlowdownPct < 0 {
		t.Fatalf("negative slowdown %v", res.SlowdownPct)
	}
	if res.CEEvents == 0 {
		t.Fatal("no CEs charged at 50ms MTBCE over a multi-second run")
	}
	if res.Perturbed.Makespan < e.Baseline().Makespan {
		t.Fatal("perturbed faster than baseline")
	}
}

func TestRunSaturationShortCircuit(t *testing.T) {
	e := smallExp(t, "minife")
	res, err := e.Run(Scenario{
		MTBCE: 100 * nsPerMs, PerEvent: noise.Fixed(133 * nsPerMs), Target: noise.AllNodes, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("load 1.33 not reported as saturated")
	}
	if res.Perturbed != nil {
		t.Fatal("saturated scenario was simulated anyway")
	}
}

func TestRunRepeatedStats(t *testing.T) {
	e := smallExp(t, "minife")
	rep, err := e.RunRepeated(Scenario{
		MTBCE: 20 * nsPerMs, PerEvent: noise.Fixed(500 * nsPerUs), Target: noise.AllNodes, Seed: 7,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sample.N() != 4 {
		t.Fatalf("sample size = %d, want 4", rep.Sample.N())
	}
	if rep.Sample.Mean() < 0 {
		t.Fatalf("mean slowdown negative: %v", rep.Sample.Mean())
	}
	if rep.Saturated {
		t.Fatal("modest load reported saturated")
	}
}

func TestRunRepeatedSeedsDiffer(t *testing.T) {
	e := smallExp(t, "lammps-crack")
	rep, err := e.RunRepeated(Scenario{
		MTBCE: 10 * nsPerMs, PerEvent: noise.Fixed(1 * nsPerMs), Target: noise.AllNodes, Seed: 11,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	vals := rep.Sample.Values()
	allSame := true
	for _, v := range vals[1:] {
		if v != vals[0] {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("all repetitions identical; seeds not varied")
	}
}

func TestRunRepeatedRejectsZeroReps(t *testing.T) {
	e := smallExp(t, "minife")
	if _, err := e.RunRepeated(Scenario{MTBCE: nsPerS, PerEvent: noise.Fixed(1)}, 0); err == nil {
		t.Fatal("0 reps accepted")
	}
}

func TestDeterministicAcrossExperiments(t *testing.T) {
	sc := Scenario{MTBCE: 30 * nsPerMs, PerEvent: noise.Fixed(1 * nsPerMs), Target: noise.AllNodes, Seed: 5}
	a := smallExp(t, "cth")
	b := smallExp(t, "cth")
	ra, err := a.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if ra.SlowdownPct != rb.SlowdownPct || ra.CEEvents != rb.CEEvents {
		t.Fatalf("identical configs diverged: %v/%v vs %v/%v",
			ra.SlowdownPct, ra.CEEvents, rb.SlowdownPct, rb.CEEvents)
	}
}

func TestSingleNodeTargetCheaperThanAllNodes(t *testing.T) {
	e := smallExp(t, "lulesh") // 8 ranks (2^3)
	single, err := e.RunRepeated(Scenario{
		MTBCE: 10 * nsPerMs, PerEvent: noise.Fixed(2 * nsPerMs), Target: 0, Seed: 3,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	all, err := e.RunRepeated(Scenario{
		MTBCE: 10 * nsPerMs, PerEvent: noise.Fixed(2 * nsPerMs), Target: noise.AllNodes, Seed: 3,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if single.Sample.Mean() > all.Sample.Mean()+1 {
		t.Fatalf("single-node CEs (%v%%) hurt more than all-node CEs (%v%%)",
			single.Sample.Mean(), all.Sample.Mean())
	}
}

func TestHigherRateHurtsMore(t *testing.T) {
	e := smallExp(t, "lammps-crack")
	slow := func(mtbce int64) float64 {
		rep, err := e.RunRepeated(Scenario{
			MTBCE: mtbce, PerEvent: noise.Fixed(1 * nsPerMs), Target: noise.AllNodes, Seed: 9,
		}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Sample.Mean()
	}
	frequent := slow(5 * nsPerMs)
	rare := slow(500 * nsPerMs)
	if frequent <= rare {
		t.Fatalf("200x higher CE rate did not increase slowdown: %v%% vs %v%%", frequent, rare)
	}
}

func TestLongerDurationHurtsMore(t *testing.T) {
	e := smallExp(t, "lammps-crack")
	slow := func(dur int64) float64 {
		rep, err := e.RunRepeated(Scenario{
			MTBCE: 20 * nsPerMs, PerEvent: noise.Fixed(dur), Target: noise.AllNodes, Seed: 13,
		}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Sample.Mean()
	}
	short := slow(10 * nsPerUs)
	long := slow(5 * nsPerMs)
	if long <= short {
		t.Fatalf("500x longer per-event cost did not increase slowdown: %v%% vs %v%%", long, short)
	}
}

func TestCanonicalResolvesNetDefault(t *testing.T) {
	zero := ExperimentConfig{Workload: "hpcg", Nodes: 32, Iterations: 2}
	if zero.Canonical().Net != netmodel.CrayXC40() {
		t.Fatal("zero Net not canonicalized to Cray XC40")
	}
	explicit := zero
	explicit.Net = netmodel.CrayXC40()
	if zero.Canonical() != explicit.Canonical() {
		t.Fatal("equivalent configs canonicalize differently")
	}
	custom := zero
	custom.Net = netmodel.Params{L: 1, O: 1, Gap: 1, GPerByte: 0.1, OPerByte: 0.1, S: 1}
	if custom.Canonical().Net != custom.Net {
		t.Fatal("explicit Net overwritten")
	}
}

// TestSizeBytesTracksProgram: the size follows the program — what
// iterations add to it they add in proportion (the streams grow with
// the iterations; the collective segments they reference do not) — and
// includes the idle run state, what a cached experiment really holds;
// taking the run state off the idle list takes exactly its bytes off
// the size.
func TestSizeBytesTracksProgram(t *testing.T) {
	progs := make([]int64, 0, 3)
	for _, iters := range []int{3, 6, 12} {
		e, err := NewExperiment(ExperimentConfig{Workload: "minife", Nodes: 16, Iterations: iters, TraceSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		size := e.SizeBytes()
		progs = append(progs, e.prog.SizeBytes())
		sim := e.acquireSim()
		results := int64(e.Ranks()) * 4 * 8
		if sim.SizeBytes() <= 0 || size != e.prog.SizeBytes()+results+sim.SizeBytes() {
			t.Fatalf("SizeBytes %d, want program %d + results %d + idle run state %d",
				size, e.prog.SizeBytes(), results, sim.SizeBytes())
		}
		if busy := e.SizeBytes(); busy != size-sim.SizeBytes() {
			t.Fatalf("SizeBytes %d with the run state taken, want %d", busy, size-sim.SizeBytes())
		}
		e.releaseSim(sim)
	}
	three, six := progs[1]-progs[0], progs[2]-progs[1]
	if three <= 0 || six < three*19/10 || six > three*21/10 {
		t.Fatalf("program bytes %v at 3, 6 and 12 iterations: 3 more add %d, 6 more add %d, want double", progs, three, six)
	}
}
