package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/collectives"
	"repro/internal/loggopsim"
	"repro/internal/tracegen"
)

// TestStreamedLoweringMatchesStaged: NewExperiment's rank-at-a-time
// pipeline builds the program the whole-trace stages build —
// Compile(Expand(Generate(...))), compiled op for compiled op, counts
// included — and its baseline is field for field the baseline of a run
// of that program. Rank counts cover the two-rank exchange, an odd
// count, uneven grid factors, and power-of-two and cube sizes; where a
// workload's decomposition admits no such count both paths must refuse
// it in the same words. Part of engine-smoke.
func TestStreamedLoweringMatchesStaged(t *testing.T) {
	algos := []collectives.AllreduceAlgo{
		collectives.AllreduceAuto, collectives.AllreduceRecursiveDoubling,
		collectives.AllreduceRabenseifner, collectives.AllreduceRing,
	}
	staged := func(cfg ExperimentConfig, ranks int) (*loggopsim.Program, *loggopsim.Result, error) {
		tr, err := tracegen.Generate(cfg.Workload, ranks, cfg.Iterations, cfg.TraceSeed)
		if err != nil {
			return nil, nil, err
		}
		ex, err := collectives.Expand(tr, cfg.Collectives)
		if err != nil {
			return nil, nil, err
		}
		prog, err := loggopsim.Compile(ex, loggopsim.Config{Net: cfg.Net, Profile: true})
		if err != nil {
			return nil, nil, err
		}
		base, err := prog.NewSimulator().Run(nil)
		return prog, base, err
	}
	for _, wl := range tracegen.Names() {
		for _, nodes := range []int{2, 3, 24, 64, 128} {
			for _, algo := range algos {
				cfg := ExperimentConfig{
					Workload: wl, Nodes: nodes, Iterations: 3, TraceSeed: 5,
					Collectives: collectives.Config{Allreduce: algo},
				}.Canonical()
				ranks := tracegen.PreferredRanks(wl, nodes)
				prog, base, serr := staged(cfg, ranks)
				e, err := NewExperiment(cfg)
				if serr != nil || err != nil {
					if serr == nil || err == nil || serr.Error() != err.Error() {
						t.Fatalf("%s/%d/%s: streamed error %v, staged error %v", wl, nodes, algo, err, serr)
					}
					continue
				}
				if e.Ranks() != ranks {
					t.Fatalf("%s/%d/%s: %d ranks, want %d", wl, nodes, algo, e.Ranks(), ranks)
				}
				if !reflect.DeepEqual(e.prog, prog) {
					t.Fatalf("%s/%d/%s: streamed program differs from Compile(Expand(Generate))", wl, nodes, algo)
				}
				if !reflect.DeepEqual(e.Baseline(), base) {
					t.Fatalf("%s/%d/%s: baseline %+v, staged %+v", wl, nodes, algo, e.Baseline(), base)
				}
			}
		}
	}
}

// allocated returns the bytes fn allocates, garbage included.
func allocated(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestColdAllocationBudget fails when the cold path starts allocating
// in proportion to the trace again. Building an experiment may allocate
// five quarters of what it keeps — the program and the baseline's run
// state; it measures 1.10, the excess being the event queue's resizes
// and the two rank-long scratch buffers. A whole generated trace held
// at any point adds 0.18 of what is kept and a whole expanded one 0.57
// (its ops are two thirds the size of the compiled ones), so either
// breaks the budget. A second run on the warmed run state may allocate
// its Result and Profile and nothing else: msgs, slot tables and the
// event queue were sized by the first.
func TestColdAllocationBudget(t *testing.T) {
	cfg := ExperimentConfig{Workload: "minife", Nodes: 128, Iterations: 20, TraceSeed: 1}
	if _, err := NewExperiment(cfg); err != nil { // fills the schedule memo, as any second request finds it
		t.Fatal(err)
	}
	var e *Experiment
	var err error
	built := allocated(func() { e, err = NewExperiment(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	sim := e.acquireSim()
	defer e.releaseSim(sim)
	kept := e.prog.SizeBytes() + sim.SizeBytes()
	t.Logf("NewExperiment allocated %d KiB; keeps program %d KiB + run state %d KiB",
		built>>10, e.prog.SizeBytes()>>10, sim.SizeBytes()>>10)
	if built > kept*5/4 {
		t.Errorf("NewExperiment allocated %d bytes, budget 1.25 x %d kept", built, kept)
	}

	before := sim.SizeBytes()
	rerun := allocated(func() { _, err = sim.Run(nil) })
	if err != nil {
		t.Fatal(err)
	}
	// Result and Profile: four int64 per rank, two structs, headers.
	if budget := int64(e.Ranks())*4*8 + 1024; rerun > budget {
		t.Errorf("second run allocated %d bytes, budget %d (Result and Profile only)", rerun, budget)
	}
	if after := sim.SizeBytes(); after != before {
		t.Errorf("second run grew the run state: %d -> %d bytes", before, after)
	}
}
