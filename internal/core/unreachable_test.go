package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/loggopsim"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/systems"
	"repro/internal/tracegen"
)

// noiseConfig is the CE model configuration Run builds for a scenario.
func noiseConfig(sc Scenario) noise.Config {
	return noise.Config{
		Seed:             sc.Seed,
		MTBCE:            sc.MTBCE,
		Arrivals:         sc.Arrivals,
		Duration:         sc.PerEvent,
		Target:           sc.Target,
		SaturationFactor: 1000,
	}
}

// simulateOn is the reference for Run: every repetition below the
// saturation load is simulated on sim, whether or not a CE can reach
// it. The tests that measure a run state run on it too.
func (e *Experiment) simulateOn(sim *loggopsim.Simulator, sc Scenario) (*RunResult, error) {
	ncfg := noiseConfig(sc)
	if err := ncfg.Validate(); err != nil {
		return nil, err
	}
	if ncfg.LoadFactor() >= saturationLoad {
		return &RunResult{Saturated: true, SlowdownPct: 0}, nil
	}
	nm, err := noise.NewCE(e.ranks, ncfg)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(nm)
	if err != nil {
		return nil, fmt.Errorf("core: perturbed simulation: %w", err)
	}
	return &RunResult{
		SlowdownPct:   stats.Slowdown(res.Makespan, e.baseline.Makespan),
		Perturbed:     res,
		CEEvents:      nm.Events(),
		CEStolenNanos: nm.Stolen(),
		Saturated:     nm.Saturated(),
		Profile:       res.Profile,
	}, nil
}

// checkAgainstReference runs sc through Run and through the reference
// on sim, requires the two results to be deeply equal, and reports
// whether Run answered from the baseline. When it did, the reference's
// run must be the baseline with no CE charged.
func checkAgainstReference(t *testing.T, e *Experiment, sim *loggopsim.Simulator, sc Scenario) bool {
	t.Helper()
	got, err := e.Run(sc)
	if err != nil {
		t.Fatalf("seed %d: %v", sc.Seed, err)
	}
	want, err := e.simulateOn(sim, sc)
	if err != nil {
		t.Fatalf("seed %d: reference: %v", sc.Seed, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: Run %+v, reference %+v", sc.Seed, got, want)
	}
	if want.Saturated && want.Perturbed == nil {
		return false
	}
	nm, err := noise.NewCE(e.ranks, noiseConfig(sc))
	if err != nil {
		t.Fatal(err)
	}
	if !e.unreachable(nm) {
		return false
	}
	if !reflect.DeepEqual(want.Perturbed, e.baseline) || want.CEEvents != 0 || want.CEStolenNanos != 0 || want.Saturated {
		t.Fatalf("seed %d: no CE reaches the run, yet simulating it gives %+v (profile %+v), %d CEs, %d ns stolen, saturated %v; baseline %+v (profile %+v)",
			sc.Seed, want.Perturbed, want.Profile, want.CEEvents, want.CEStolenNanos, want.Saturated, e.baseline, e.baseline.Profile)
	}
	return true
}

// FuzzUnreachableMatchesSimulation: over workloads, 2-64 nodes, MTBCEs
// from 1/16 to 2^27 times the baseline makespan, either target, fixed
// and every-Nth durations, Poisson and fault-mix arrivals, Run equals
// the reference, and whenever Run answers from the baseline, simulating
// gives exactly the baseline. Durations stay at or below half the mean
// gap (1/1024 of it under a mixture), so every input finishes in
// milliseconds.
//
//	go test -run '^$' -fuzz=FuzzUnreachableMatchesSimulation -fuzztime=20s -fuzzminimizetime=0 ./internal/core/
func FuzzUnreachableMatchesSimulation(f *testing.F) {
	f.Add(uint8(0), uint8(14), uint8(1), uint8(40), uint8(0), uint64(1), uint8(0), uint8(10), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(30), uint8(2), uint8(12), uint8(1), uint64(7), uint8(0), uint8(6), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(6), uint8(3), uint8(22), uint8(3), uint64(3), uint8(1), uint8(8), uint8(9), uint8(0))
	f.Add(uint8(3), uint8(62), uint8(0), uint8(4), uint8(0), uint64(5), uint8(0), uint8(12), uint8(0), uint8(0))
	f.Add(uint8(4), uint8(20), uint8(1), uint8(16), uint8(0), uint64(2), uint8(0), uint8(10), uint8(0), uint8(1))
	f.Add(uint8(5), uint8(14), uint8(2), uint8(30), uint8(2), uint64(9), uint8(1), uint8(4), uint8(3), uint8(3))
	f.Add(uint8(8), uint8(40), uint8(1), uint8(24), uint8(0), uint64(4), uint8(0), uint8(20), uint8(0), uint8(7))
	// One CE, charged within a millisecond of its rank's finish time.
	f.Add(uint8(3), uint8(23), uint8(0), uint8(2), uint8(40), uint64(5), uint8(0), uint8(12), uint8(26), uint8(3))
	names, mixes := tracegen.Names(), systems.FaultMixes()
	f.Fuzz(func(t *testing.T, wl, nodes, iters, mtbceLog, target uint8, seed uint64, durKind, durLog, nth, mix uint8) {
		name, n := names[int(wl)%len(names)], 2+int(nodes)%63
		if tracegen.PreferredRanks(name, n) < 2 {
			t.Skipf("%s decomposes %d nodes into one rank", name, n)
		}
		e, err := NewExperiment(ExperimentConfig{Workload: name, Nodes: n, Iterations: 1 + int(iters)%4, TraceSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		mtbce := e.baseline.Makespan >> 4 << (mtbceLog % 32)
		shift := 1 + durLog%40
		if mix%2 == 1 {
			shift += 9 // skewed nodes see hundreds of times the mean rate
		}
		sc := Scenario{MTBCE: mtbce, PerEvent: noise.Fixed(mtbce >> shift), Target: noise.AllNodes, Seed: seed}
		if durKind%2 == 1 {
			sc.PerEvent = noise.EveryNth{Base: mtbce >> (shift + 1), Extra: mtbce >> (shift + 1 + nth%8), N: 1 + uint64(nth)%16}
		}
		if k := int(target) % (e.Ranks() + 1); k > 0 {
			sc.Target = int32(k - 1)
		}
		if mix%2 == 1 {
			spec := mixes[int(mix/2)%len(mixes)].Spec
			spec.MTBCENanos = mtbce
			if sc.Arrivals, err = spec.Process(); err != nil {
				t.Skip(err) // a burst train longer than the mean gap: refused at admission
			}
		}
		checkAgainstReference(t, e, e.acquireSim(), sc)
	})
}

// figureTasks builds the rows runFigure runs for figure id under opts,
// as runFigure builds them, and the repetitions each row gets.
func figureTasks(t *testing.T, id string, opts Options) ([]rowTask, int) {
	t.Helper()
	def, err := figureByID(id)
	if err != nil {
		t.Fatal(err)
	}
	opts = opts.withDefaults()
	if def.repsFactor > 1 {
		opts.Reps *= def.repsFactor
	}
	cells, err := def.cells(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cache := newExpCache(opts)
	var tasks []rowTask
	for _, wl := range opts.Workloads {
		for _, c := range cells {
			nodes, comp := opts.Nodes, 1.0
			if c.paperNodes != 0 {
				nodes, comp = opts.nodesFor(c.paperNodes)
			}
			e, err := cache.get(wl, nodes)
			if err != nil {
				t.Fatal(err)
			}
			c.sc.MTBCE = compensateMTBCE(c.sc.MTBCE, comp)
			if c.mix != nil {
				mix := *c.mix
				mix.MTBCENanos = c.sc.MTBCE
				if c.sc.Arrivals, err = mix.Process(); err != nil {
					t.Fatal(err)
				}
			}
			tasks = append(tasks, rowTask{e: e, sc: c.sc})
		}
	}
	return tasks, opts.Reps
}

// TestUnreachableFiguresMatchSimulation runs every repetition of every
// sweep figure but Fig. 8 (whose software rows grind for minutes) at a
// small scale through Run and through the reference. At Table II rates
// most ranks see no CE before they finish, so Run must answer some of
// Figs. 3, 4 and 5 from the baseline — the comparison is never vacuous.
func TestUnreachableFiguresMatchSimulation(t *testing.T) {
	opts := Options{Nodes: 16, SpanNanos: 100 * nsPerMs, Reps: 2, Seed: 1, Workloads: []string{"minife", "lulesh", "lammps-crack"}}
	for _, id := range FigureIDs() {
		if id == "8" {
			continue
		}
		tasks, reps := figureTasks(t, id, opts)
		fired, total := 0, 0
		for _, task := range tasks {
			sim := task.e.acquireSim()
			for i := 0; i < reps; i++ {
				sc := task.sc
				sc.Seed += uint64(i)
				if checkAgainstReference(t, task.e, sim, sc) {
					fired++
				}
				total++
			}
			task.e.releaseSim(sim)
		}
		t.Logf("fig%s: %d of %d repetitions answered from the baseline", id, fired, total)
		if (id == "3" || id == "4" || id == "5") && fired == 0 {
			t.Errorf("fig%s: no repetition answered from the baseline", id)
		}
	}
}

// TestUnreachableTakesNoRunState: a repetition answered from the
// baseline neither takes a run state off the idle list nor allocates
// one, and hands back a copy of the baseline its caller may modify.
func TestUnreachableTakesNoRunState(t *testing.T) {
	e := smallExp(t, "minife")
	held := e.acquireSim() // the idle list is now empty
	defer e.releaseSim(held)
	sc := Scenario{MTBCE: 1 << 40, PerEvent: noise.Fixed(1), Target: noise.AllNodes, Seed: 9}
	res, err := e.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.RunRepeated(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(idleSims(e)); n != 0 {
		t.Fatalf("%d run states on the idle list after unreachable repetitions, want 0", n)
	}
	if rep.Sample.N() != 3 || rep.Sample.Max() != 0 {
		t.Fatalf("unreachable repetitions gave %v, want three zero slowdowns", rep.Sample.Values())
	}
	if !reflect.DeepEqual(res.Perturbed, e.baseline) || res.Profile != res.Perturbed.Profile {
		t.Fatalf("unreachable run %+v, want the baseline %+v", res.Perturbed, e.baseline)
	}
	finish, wait := e.baseline.FinishTimes[0], e.baseline.Profile.PerRankWait[0]
	res.Perturbed.FinishTimes[0]++
	res.Profile.PerRankWait[0]++
	if e.baseline.FinishTimes[0] != finish || e.baseline.Profile.PerRankWait[0] != wait {
		t.Fatal("the caller's copy of the baseline aliases the experiment's")
	}
}

// TestAnatomyCleanRunIsUnreachable: examples/anatomy's clean run (MTBCE
// 2^62 ns, seed 9, 64 nodes, 40 iterations) is answered from the
// baseline on each of its workloads. A first gap past 2^63 ns used to
// become a negative arrival time on amd64, which sent the run to the
// simulator and charged it one CE.
func TestAnatomyCleanRunIsUnreachable(t *testing.T) {
	sc := Scenario{MTBCE: 1 << 62, PerEvent: noise.Fixed(1), Target: noise.AllNodes, Seed: 9}
	for _, wl := range []string{"lammps-lj", "minife", "lulesh", "lammps-crack"} {
		e, err := NewExperiment(ExperimentConfig{Workload: wl, Nodes: 64, Iterations: 40, TraceSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		nm, err := noise.NewCE(e.ranks, noiseConfig(sc))
		if err != nil {
			t.Fatal(err)
		}
		if !e.unreachable(nm) {
			t.Errorf("%s: the clean run is simulated, not answered from the baseline", wl)
		}
	}
}
