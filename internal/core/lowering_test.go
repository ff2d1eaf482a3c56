package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/collectives"
	"repro/internal/loggopsim"
	"repro/internal/tracegen"
)

// TestStreamedLoweringMatchesStaged: NewExperiment's program is what
// the rank-at-a-time lowering builds through loggopsim's and
// collectives' public API — the expander reporting each rank to the
// builder — field for field (loggopsim's test of the same name shows
// that lowering, flattened, to be Compile(Expand(Generate(...))) op for
// op, cost for cost, counts included), and its baseline is field for
// field the baseline of a run of the whole-trace stages' program. Rank
// counts cover the two-rank exchange, an odd count, uneven grid factors,
// and power-of-two and cube sizes; where a workload's decomposition
// admits no such count both paths must refuse it in the same words.
// Part of engine-smoke.
func TestStreamedLoweringMatchesStaged(t *testing.T) {
	algos := []collectives.AllreduceAlgo{
		collectives.AllreduceAuto, collectives.AllreduceRecursiveDoubling,
		collectives.AllreduceRabenseifner, collectives.AllreduceRing,
	}
	// lowered returns the rank-at-a-time program and the baseline of the
	// whole-trace stages' program.
	lowered := func(cfg ExperimentConfig, ranks int) (*loggopsim.Program, *loggopsim.Result, error) {
		tr, err := tracegen.Generate(cfg.Workload, ranks, cfg.Iterations, cfg.TraceSeed)
		if err != nil {
			return nil, nil, err
		}
		ex, err := collectives.Expand(tr, cfg.Collectives)
		if err != nil {
			return nil, nil, err
		}
		sim, err := loggopsim.NewSimulator(ex, loggopsim.Config{Net: cfg.Net, Profile: true})
		if err != nil {
			return nil, nil, err
		}
		base, err := sim.Run(nil)
		if err != nil {
			return nil, nil, err
		}
		// The same trace again, a rank at a time.
		x, err := collectives.NewExpander(ranks, cfg.Collectives)
		if err != nil {
			return nil, nil, err
		}
		b, err := loggopsim.NewBuilder(ranks, loggopsim.Config{Net: cfg.Net, Profile: true})
		if err != nil {
			return nil, nil, err
		}
		for r, ops := range tr.Ops {
			if err := b.StartRank(r); err != nil {
				return nil, nil, err
			}
			if err := x.ExpandRank(b, r, ops); err != nil {
				return nil, nil, err
			}
		}
		prog, err := b.Program()
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
				prog, base, serr := lowered(cfg, ranks)
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
					t.Fatalf("%s/%d/%s: NewExperiment's program differs from the rank-at-a-time lowering", wl, nodes, algo)
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
// what it keeps — the program and the baseline's run state — and the
// run state once more: the first run grows its event queue into the
// size it keeps, and the buckets it outgrows (with the rank-long
// generation buffer and the builder's stream buffer) are about half a
// run state of garbage; it measures program + 1.5 x run state. The
// budget is stated in run states, not as a multiple of what is kept,
// because the program is now the smaller part: against 1.25 x kept the
// queue's garbage alone would fail a build that holds nothing it should
// not. A whole generated trace held at any point adds 1.2 run states
// and a whole expanded one 3.8, so either still breaks the budget. A
// second run on the warmed run state may allocate its Result and Profile
// and nothing else: msgs, slot tables and the event queue were sized by
// the first.
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
	if budget := kept + sim.SizeBytes(); built > budget {
		t.Errorf("NewExperiment allocated %d bytes, budget %d: the %d kept and a run state more", built, budget, kept)
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
