package loggopsim

// Golden bit-identity tests for simulator-state reuse: a Simulator
// constructed once and Run many times — in shuffled seed order, with
// repeated seeds, interleaved with noise-free runs — must reproduce
// a fresh Simulator's results event for event. This is the hard constraint
// that lets the repeated-run hot path (core.RunRepeated, the daemon's
// sweep jobs) reuse preallocated state.

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/collectives"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// expandWorkload generates and collective-expands a tracegen workload.
func expandWorkload(t *testing.T, workload string, ranks, iters int) *trace.Trace {
	t.Helper()
	tr, err := tracegen.Generate(workload, ranks, iters, 1)
	if err != nil {
		t.Fatalf("generate %s: %v", workload, err)
	}
	ex, err := collectives.Expand(tr, collectives.Config{})
	if err != nil {
		t.Fatalf("expand %s: %v", workload, err)
	}
	return ex
}

// ceModel builds a fresh CE noise model; both the fresh-Simulator and
// the reused-Simulator paths get their own instance per seed, as the
// repetition loops in core do.
func ceModel(t *testing.T, ranks int, seed uint64) noise.Model {
	t.Helper()
	nm, err := noise.NewCE(ranks, noise.Config{
		Seed: seed, MTBCE: 20 * ms, Duration: noise.Fixed(500 * us), Target: noise.AllNodes,
	})
	if err != nil {
		t.Fatalf("noise model: %v", err)
	}
	return nm
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// requireIdentical fails unless two results match on every observable
// field, including the per-rank profile decomposition.
func requireIdentical(t testing.TB, label string, fresh, reused *Result) {
	t.Helper()
	if fresh.Makespan != reused.Makespan {
		t.Fatalf("%s: makespan %d != %d", label, reused.Makespan, fresh.Makespan)
	}
	if !int64sEqual(fresh.FinishTimes, reused.FinishTimes) {
		t.Fatalf("%s: finish times diverged\nfresh:  %v\nreused: %v", label, fresh.FinishTimes, reused.FinishTimes)
	}
	if fresh.Events != reused.Events {
		t.Fatalf("%s: events %d != %d", label, reused.Events, fresh.Events)
	}
	if fresh.Messages != reused.Messages {
		t.Fatalf("%s: messages %d != %d", label, reused.Messages, fresh.Messages)
	}
	if fresh.BytesMoved != reused.BytesMoved {
		t.Fatalf("%s: bytes %d != %d", label, reused.BytesMoved, fresh.BytesMoved)
	}
	if fresh.Deadlocked != reused.Deadlocked {
		t.Fatalf("%s: termination flag diverged", label)
	}
	if (fresh.Profile == nil) != (reused.Profile == nil) {
		t.Fatalf("%s: profile presence diverged", label)
	}
	if fresh.Profile != nil {
		fp, rp := fresh.Profile, reused.Profile
		if fp.Work != rp.Work || fp.Detour != rp.Detour || fp.Wait != rp.Wait {
			t.Fatalf("%s: profile totals diverged: %+v vs %+v", label, rp, fp)
		}
		if !int64sEqual(fp.PerRankWork, rp.PerRankWork) ||
			!int64sEqual(fp.PerRankDetour, rp.PerRankDetour) ||
			!int64sEqual(fp.PerRankWait, rp.PerRankWait) {
			t.Fatalf("%s: per-rank profile diverged", label)
		}
	}
}

func TestSimulatorReuseBitIdentical(t *testing.T) {
	workloads := []struct {
		name         string
		ranks, iters int
	}{
		{"minife", 16, 3},
		{"cth", 8, 2},
	}
	// Shuffled, with a repeated seed: reuse must not depend on run
	// order or on having seen a seed before.
	seeds := []uint64{5, 2, 9, 2, 7, 1, 9}
	for _, wl := range workloads {
		ex := expandWorkload(t, wl.name, wl.ranks, wl.iters)
		ranks := ex.NumRanks()
		for _, profile := range []bool{false, true} {
			cfg := Config{Net: netmodel.CrayXC40(), Profile: profile}
			sim, err := NewSimulator(ex, cfg)
			if err != nil {
				t.Fatalf("%s: new simulator: %v", wl.name, err)
			}
			if sim.Ranks() != ranks {
				t.Fatalf("%s: simulator ranks %d, want %d", wl.name, sim.Ranks(), ranks)
			}
			freshClean, err := Simulate(ex, cfg)
			if err != nil {
				t.Fatalf("%s: fresh clean run: %v", wl.name, err)
			}
			reusedClean, err := sim.Run(nil)
			if err != nil {
				t.Fatalf("%s: reused clean run: %v", wl.name, err)
			}
			requireIdentical(t, wl.name+"/clean", freshClean, reusedClean)
			for _, seed := range seeds {
				fresh := mustRun(t, ex, cfg, ceModel(t, ranks, seed))
				reused, err := sim.Run(ceModel(t, ranks, seed))
				if err != nil {
					t.Fatalf("%s seed %d: reused run: %v", wl.name, seed, err)
				}
				requireIdentical(t, wl.name, fresh, reused)
				if fresh.Makespan < freshClean.Makespan {
					t.Fatalf("%s seed %d: noisy run faster than clean baseline", wl.name, seed)
				}
			}
			// A later run must not have mutated the first Run's result
			// (FinishTimes and Profile are freshly allocated per run).
			requireIdentical(t, wl.name+"/retained", freshClean, reusedClean)
			again, err := sim.Run(nil)
			if err != nil {
				t.Fatalf("%s: clean re-run: %v", wl.name, err)
			}
			requireIdentical(t, wl.name+"/clean-again", freshClean, again)
		}
	}
}

// withUnmatchedRendezvous returns a copy of tr whose rank 0 ends with a
// rendezvous Isend to rank 1 that no rank receives, and its Wait: the
// run deadlocks there with the handshake's record in flight.
func withUnmatchedRendezvous(tr *trace.Trace, net netmodel.Params) *trace.Trace {
	out := &trace.Trace{Name: tr.Name, Ops: slices.Clone(tr.Ops)}
	var tag, req int32
	for _, ops := range tr.Ops {
		for _, op := range ops {
			tag, req = max(tag, op.Tag+1), max(req, op.Req+1)
		}
	}
	out.Ops[0] = append(slices.Clone(tr.Ops[0]), trace.Isend(1, net.S+1, tag, req), trace.Wait(req))
	return out
}

// TestSimulatorRunErrorStateRecovers checks that a run cut short by a
// deadlock leaves the simulator reusable: the next Run starts from clean
// state.
func TestSimulatorRunErrorStateRecovers(t *testing.T) {
	cfg := Config{Net: netmodel.CrayXC40()}
	ex := withUnmatchedRendezvous(expandWorkload(t, "minife", 8, 2), cfg.Net)
	sim, err := NewSimulator(ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(nil)
	if err == nil || !res.Deadlocked {
		t.Fatalf("expected a deadlock, got err=%v res=%+v", err, res)
	}
	res2, err := sim.Run(nil)
	if err == nil || !res2.Deadlocked {
		t.Fatalf("second run after the deadlock: err=%v", err)
	}
	requireIdentical(t, "deadlock-repeat", res, res2)
}

// TestProgramSharedAcrossGoroutines: one compiled Program run by many
// goroutines at once, each on its own Simulator, reproduces the
// sequential fresh-Simulator results field for field — finish times and
// per-rank profile included. Run under -race this is also the proof
// that a run writes nothing the Program owns.
func TestProgramSharedAcrossGoroutines(t *testing.T) {
	ex := expandWorkload(t, "minife", 16, 3)
	ranks := ex.NumRanks()
	cfg := Config{Net: netmodel.CrayXC40(), Profile: true}
	const goroutines, runsEach = 8, 3
	want := make([]*Result, goroutines*runsEach)
	for i := range want {
		want[i] = mustRun(t, ex, cfg, ceModel(t, ranks, uint64(i+1)))
	}

	prog, err := Compile(ex, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Result, len(want))
	models := make([]noise.Model, len(want))
	for i := range models {
		models[i] = ceModel(t, ranks, uint64(i+1))
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sim := prog.NewSimulator()
			for k := 0; k < runsEach; k++ {
				i := g*runsEach + k
				var err error
				if got[i], err = sim.Run(models[i]); err != nil {
					t.Errorf("seed %d: %v", i+1, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := range want {
		requireIdentical(t, fmt.Sprintf("seed %d", i+1), want[i], got[i])
	}
}
