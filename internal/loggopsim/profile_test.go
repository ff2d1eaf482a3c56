package loggopsim

import (
	"testing"

	"repro/internal/collectives"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/trace"
)

func TestProfileDisabledByDefault(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{{trace.Calc(100)}}}
	res := mustSim(t, tr, defaultCfg())
	if res.Profile != nil {
		t.Fatal("profile populated without Config.Profile")
	}
}

func TestProfileWorkOnly(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(100), trace.Calc(200)},
		{trace.Calc(500)},
	}}
	res := mustSim(t, tr, Config{Net: netmodel.CrayXC40(), Profile: true})
	p := res.Profile
	if p == nil {
		t.Fatal("no profile")
	}
	if p.Work != 800 {
		t.Fatalf("work = %d, want 800", p.Work)
	}
	if p.Detour != 0 || p.Wait != 0 {
		t.Fatalf("detour/wait = %d/%d on a compute-only noise-free trace", p.Detour, p.Wait)
	}
	if p.PerRankWork[0] != 300 || p.PerRankWork[1] != 500 {
		t.Fatalf("per-rank work %v", p.PerRankWork)
	}
}

func TestProfileWaitAccounting(t *testing.T) {
	// Rank 1 blocks in a receive while rank 0 computes for 1s: nearly
	// all of rank 1's time is wait.
	net := netmodel.CrayXC40()
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(1 * s), trace.Send(1, 8, 0)},
		{trace.Recv(0, 8, 0)},
	}}
	res := mustSim(t, tr, Config{Net: net, Profile: true})
	p := res.Profile
	wantWait := 1*s + net.SendCPU(8) + net.Transit(8) // rank 1 idle until arrival
	if p.PerRankWait[1] != wantWait {
		t.Fatalf("rank 1 wait = %d, want %d", p.PerRankWait[1], wantWait)
	}
	if p.PerRankWait[0] != 0 {
		t.Fatalf("rank 0 wait = %d, want 0", p.PerRankWait[0])
	}
}

func TestProfileDetourAccounting(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(100 * ms)},
		{trace.Calc(100 * ms)},
	}}
	nm, err := noise.NewCE(2, noise.Config{
		Seed: 3, MTBCE: 10 * ms, Duration: noise.Fixed(1 * ms), Target: noise.AllNodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, tr, Config{Net: netmodel.CrayXC40(), Profile: true}, nm)
	p := res.Profile
	if p.Detour <= 0 {
		t.Fatal("no detour time recorded under CE noise")
	}
	if p.Detour != nm.Stolen() {
		t.Fatalf("profile detour %d != noise model stolen %d", p.Detour, nm.Stolen())
	}
	if p.Work != 200*ms {
		t.Fatalf("work = %d, want 200ms", p.Work)
	}
}

func TestProfileDecomposesCollectiveSlowdown(t *testing.T) {
	// Under all-node CE noise on an allreduce-per-iteration workload,
	// the makespan increase shows up as detour + wait; the profile
	// lets callers separate local dilation from propagated stalls.
	tr := &trace.Trace{Ops: make([][]trace.Op, 16)}
	for r := range tr.Ops {
		var ops []trace.Op
		for i := 0; i < 20; i++ {
			ops = append(ops, trace.Calc(5*ms), trace.Allreduce(8))
		}
		tr.Ops[r] = ops
	}
	ex, err := collectives.Expand(tr, collectives.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nm, err := noise.NewCE(16, noise.Config{
		Seed: 5, MTBCE: 50 * ms, Duration: noise.Fixed(5 * ms), Target: noise.AllNodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, ex, Config{Net: netmodel.CrayXC40(), Profile: true}, nm)
	p := res.Profile
	if p.Detour == 0 {
		t.Fatal("no detours charged")
	}
	// Propagation: the wait time across ranks should exceed the detour
	// time itself — each detour stalls many peers at the next
	// allreduce.
	if p.Wait <= p.Detour {
		t.Fatalf("wait %d <= detour %d; no propagation visible", p.Wait, p.Detour)
	}
	// Conservation: each rank's work, detour and wait add up to its
	// finish time exactly.
	requireTimeConserved(t, "allreduce under CE noise", res)
}

func TestProfilePerRankSlicesSized(t *testing.T) {
	tr := &trace.Trace{Ops: make([][]trace.Op, 5)}
	for r := range tr.Ops {
		tr.Ops[r] = []trace.Op{trace.Calc(10)}
	}
	res := mustSim(t, tr, Config{Net: netmodel.CrayXC40(), Profile: true})
	p := res.Profile
	if len(p.PerRankWork) != 5 || len(p.PerRankDetour) != 5 || len(p.PerRankWait) != 5 {
		t.Fatal("per-rank slices missized")
	}
}
