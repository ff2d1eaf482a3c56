package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/collectives"
	"repro/internal/loggopsim"
	"repro/internal/noise"
	"repro/internal/systems"
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
// in proportion to the trace again, or the first run starts growing its
// run state again. Building an experiment may allocate what it keeps —
// the program and the baseline's run state, whose event queue is sized
// from the program's slot counts and holds its peak population, not a
// biggest-burst slab per bucket (PR 22) — and the rank-long generation
// buffer and the builder's stream buffer on top: it measures 1.105 x
// kept (1 474 KiB built for 1 334 kept) and the budget is 1.15 x. With
// per-bucket queue storage the same build measured 1.24 x (2 951 for
// 2 374: the buckets the first run outgrew were half a run state of
// garbage), a whole generated trace held at any point adds 1.0 x and a
// whole expanded one 3.3 x, so each breaks the budget. A second
// noise-free run on the warmed run state may allocate its Result and
// Profile and nothing else: msgs, slot tables and the event queue were
// sized by the first. (A perturbed repetition also allocates its noise
// model; TestRunStateStopsGrowingAcrossSeeds holds that budget.)
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
	if budget := kept + kept*15/100; built > budget {
		t.Errorf("NewExperiment allocated %d bytes, budget %d: 1.15 x the %d kept", built, budget, kept)
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

// TestRunStateStopsGrowingAcrossSeeds: a cached baseline's run state is
// priced once, when simcache inserts it, so it must not go on growing
// with every noise seed it is run under — with a biggest-burst slab per
// calendar bucket it did, by 100-180 % over sixteen seeds at 512 nodes,
// as the perturbed collective bursts landed in different buckets each
// time (PR 22). After the first perturbed run sixteen further seeds may
// move SizeBytes by 2 % (an unexpected-message list or the agenda
// finding a new high), and a warm perturbed run allocates its Result
// and Profile (four int64 per rank) and its noise model (a stream per
// rank) and nothing for the queue: 256 bytes a rank and 8 KiB, against
// 123-125 KB measured at 512 ranks and 2.0-3.9 MB before. Part of
// engine-smoke.
func TestRunStateStopsGrowingAcrossSeeds(t *testing.T) {
	for _, wl := range []string{"minife", "hpcg", "milc"} {
		e, err := NewExperiment(ExperimentConfig{Workload: wl, Nodes: 512, Iterations: 20, TraceSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sim := e.acquireSim()
		sc := Scenario{MTBCE: 200e6, PerEvent: noise.Fixed(systems.SoftwareCMCI.PerEventNanos), Target: noise.AllNodes}
		run := func(seed uint64) {
			sc.Seed = seed
			if _, err := e.simulateOn(sim, sc); err != nil {
				t.Fatal(err)
			}
		}
		run(1)
		first := sim.SizeBytes()
		for seed := uint64(2); seed <= 17; seed++ {
			run(seed)
		}
		after := sim.SizeBytes()
		t.Logf("%s@512: run state %d KiB after one perturbed seed, %d KiB after seventeen", wl, first>>10, after>>10)
		if after-first > first/50 {
			t.Errorf("%s@512: run state grew from %d to %d bytes over sixteen more seeds, over 2 %%", wl, first, after)
		}
		warm, budget := allocated(func() { run(18) }), int64(e.Ranks())*256+8<<10
		t.Logf("%s@512: a warm perturbed run allocated %d bytes, budget %d", wl, warm, budget)
		if warm > budget {
			t.Errorf("%s@512: a warm perturbed run allocated %d bytes, budget %d (Result, Profile and noise model)", wl, warm, budget)
		}
	}
}
