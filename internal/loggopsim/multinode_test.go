package loggopsim

import (
	"testing"

	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/trace"
)

func TestRanksPerNodeDefaultsToOne(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Send(1, 64, 0)},
		{trace.Recv(0, 64, 0)},
	}}
	a := mustSim(t, tr, Config{Net: netmodel.CrayXC40()})
	b := mustSim(t, tr, Config{Net: netmodel.CrayXC40(), RanksPerNode: 1})
	if a.Makespan != b.Makespan {
		t.Fatalf("explicit rpn=1 changed result: %d vs %d", a.Makespan, b.Makespan)
	}
}

func TestSharedNICSerializesCoLocatedSenders(t *testing.T) {
	// Two ranks on one node send simultaneously to distinct remote
	// ranks: the shared NIC forces the second injection to wait a gap.
	net := netmodel.CrayXC40()
	size := int64(4096)
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Send(2, size, 0)},
		{trace.Send(3, size, 0)},
		{trace.Recv(0, size, 0)},
		{trace.Recv(1, size, 0)},
	}}
	shared := mustSim(t, tr, Config{Net: net, RanksPerNode: 2})
	separate := mustSim(t, tr, Config{Net: net, RanksPerNode: 1})
	// With separate NICs both receivers finish at the same one-way
	// latency; with a shared NIC one of them is delayed by the gap.
	if separate.FinishTimes[2] != separate.FinishTimes[3] {
		t.Fatalf("separate NICs skewed receivers: %v", separate.FinishTimes)
	}
	slower := max(shared.FinishTimes[2], shared.FinishTimes[3])
	faster := min64(shared.FinishTimes[2], shared.FinishTimes[3])
	if slower-faster != net.NICGap(size) {
		t.Fatalf("shared NIC skew = %d, want one gap %d", slower-faster, net.NICGap(size))
	}
}

func TestRendezvousUsesSharedNIC(t *testing.T) {
	// Large payloads through the shared NIC must also serialize.
	net := netmodel.CrayXC40()
	size := net.S * 4
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Send(2, size, 0)},
		{trace.Send(3, size, 0)},
		{trace.Recv(0, size, 0)},
		{trace.Recv(1, size, 0)},
	}}
	shared := mustSim(t, tr, Config{Net: net, RanksPerNode: 2})
	if shared.FinishTimes[2] == shared.FinishTimes[3] {
		t.Fatal("rendezvous payloads did not serialize through the shared NIC")
	}
}

func TestSMMDetourHaltsWholeNode(t *testing.T) {
	// Two independent rank pairs; ranks 0,1 share node 0. CE noise
	// targeted at node 0, two ranks to a node, must delay rank 1's work
	// even though only "rank 0's" errors occur — SMM halts the node.
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(100 * ms)},
		{trace.Calc(100 * ms)},
		{trace.Calc(100 * ms)},
		{trace.Calc(100 * ms)},
	}}
	nm, err := noise.NewCE(4, noise.Config{
		Seed: 3, MTBCE: 10 * ms, Duration: noise.Fixed(7 * ms), Target: 0, RanksPerNode: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, tr, Config{Net: netmodel.CrayXC40(), RanksPerNode: 2}, nm)
	if res.FinishTimes[0] != res.FinishTimes[1] {
		t.Fatalf("co-located ranks saw different detours: %v", res.FinishTimes[:2])
	}
	if res.FinishTimes[0] == 100*ms {
		t.Fatal("targeted node saw no detours")
	}
	if res.FinishTimes[2] != 100*ms || res.FinishTimes[3] != 100*ms {
		t.Fatalf("untargeted node delayed: %v", res.FinishTimes[2:])
	}
}

func TestMultiRankCollectiveRuns(t *testing.T) {
	// An allreduce across 4 nodes x 4 ranks, each node's four sharing a
	// NIC: checks the full pipeline at rpn > 1.
	res := simCollective(t, 16, trace.Allreduce(64), Config{Net: netmodel.CrayXC40(), RanksPerNode: 4})
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
}

func TestNegativeRanksPerNodeRejected(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{{trace.Calc(1)}}}
	if _, err := Simulate(tr, Config{Net: netmodel.CrayXC40(), RanksPerNode: -2}); err == nil {
		t.Fatal("negative ranks per node accepted")
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
