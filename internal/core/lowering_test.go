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

// coldScratch is what building minife at 128 nodes and 20 iterations
// may allocate beyond what the experiment keeps: the rank-long
// generation buffer, the builder's stream, segment and exchange buffers
// and the expander's, none of which shrinks with the program.
const coldScratch = 192 << 10

// TestColdAllocationBudget fails when the cold path starts allocating
// in proportion to the trace again, or the first run starts growing its
// run state again. Building an experiment may allocate what it keeps —
// the program and the baseline's run state, whose event queue is sized
// from the program's slot counts and holds its peak population, not a
// biggest-burst slab per bucket — and coldScratch on top: it
// measures 771 KiB built for 633 kept, 139 KiB of scratch (1 452 for
// 1 310, 140 KiB, before repeated exchanges were shared; a budget of
// 1.15 x kept stopped fitting when the program shrank and the scratch
// did not). Each regression breaks the budget, measured on a copy of the
// tree: a whole generated trace held at any point adds 1 680 KiB of
// scratch, a whole expanded one compiled flat 7 143 KiB, a run state
// allocated empty and grown by its first run 265 KiB, and per-bucket
// queue storage measured 577 KiB of garbage alone. A second
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
	if budget := kept + coldScratch; built > budget {
		t.Errorf("NewExperiment allocated %d bytes, budget %d: the %d kept and %d of scratch", built, budget, kept, coldScratch)
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

// TestRepetitionAllocatesConstantObjects: a perturbed repetition
// allocates a fixed handful of objects whatever the rank count — the
// noise model and its one table of per-node streams, the Result and its
// finish times, the Profile and its per-rank slices, the RunResult —
// not one per node: hpcg at 128 ranks allocated 139, ranks + 11, while
// every node's stream was an allocation of its own. Part of
// engine-smoke.
func TestRepetitionAllocatesConstantObjects(t *testing.T) {
	e, err := NewExperiment(ExperimentConfig{Workload: "hpcg", Nodes: 128, Iterations: 20, TraceSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.Ranks() < 128 {
		t.Fatalf("hpcg on 128 nodes runs %d ranks", e.Ranks())
	}
	sc := Scenario{MTBCE: 20e6, PerEvent: noise.Fixed(systems.SoftwareCMCI.PerEventNanos), Target: noise.AllNodes}
	simulated := 0
	run := func() {
		sc.Seed++
		res, err := e.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.CEEvents > 0 {
			simulated++
		}
	}
	run() // the first run on a run state may grow it
	const runs = 20
	allocs := testing.AllocsPerRun(runs, run)
	t.Logf("hpcg@%d: %.1f allocations per repetition, %d of %d repetitions simulated", e.Ranks(), allocs, simulated, runs+2)
	if simulated < runs {
		t.Fatalf("only %d of %d repetitions were simulated: the rest were answered from the baseline", simulated, runs+2)
	}
	if allocs > 16 {
		t.Errorf("a repetition at %d ranks allocated %.1f objects, want at most 16", e.Ranks(), allocs)
	}
}
