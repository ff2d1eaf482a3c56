package loggopsim

import (
	"testing"

	"repro/internal/netmodel"
	"repro/internal/trace"
)

// requireMatchesInPostOrder runs a two-rank micro-trace twice: as
// given, where rank 0 sends twice with one tag and rank 1 posts two
// receives that both name it, and with the second message and the
// second-posted receive on a tag of their own, which leaves one
// matching that MPI allows. Both runs must finish at the same times:
// the first message meets the receive posted first.
func requireMatchesInPostOrder(t *testing.T, build func(second int32) [][]trace.Op) {
	t.Helper()
	same := mustSim(t, &trace.Trace{Ops: build(0)}, defaultCfg())
	distinct := mustSim(t, &trace.Trace{Ops: build(1)}, defaultCfg())
	for r := range distinct.FinishTimes {
		if same.FinishTimes[r] != distinct.FinishTimes[r] {
			t.Fatalf("rank %d finishes at %d ns with one tag, %d ns with a tag per message",
				r, same.FinishTimes[r], distinct.FinishTimes[r])
		}
	}
}

// TestBlockingRecvPostedLikeAnIrecv: a blocking Recv is posted behind
// the Irecv before it, so the first message meets the Irecv even
// though the rank is blocked in the Recv when it lands.
func TestBlockingRecvPostedLikeAnIrecv(t *testing.T) {
	requireMatchesInPostOrder(t, func(second int32) [][]trace.Op {
		return [][]trace.Op{
			{trace.Send(1, 8, 0), trace.Calc(1 * ms), trace.Send(1, 4000, second)},
			{trace.Irecv(0, 8, 0, 0), trace.Recv(0, 4000, second), trace.Wait(0)},
		}
	})
}

// TestIrecvInFreedSlotMatchesAfterEarlierPost: an Irecv posted into
// the slot a Wait freed is still behind the Irecv posted before that
// Wait; slot indices do not order matching.
func TestIrecvInFreedSlotMatchesAfterEarlierPost(t *testing.T) {
	requireMatchesInPostOrder(t, func(second int32) [][]trace.Op {
		return [][]trace.Op{
			{trace.Recv(1, 8, 9), trace.Send(1, 8, 0), trace.Calc(1 * ms), trace.Send(1, 4000, second)},
			{trace.Isend(0, 8, 9, 0), trace.Irecv(0, 8, 0, 1), trace.Wait(0), trace.Irecv(0, 4000, second, 2), trace.WaitAll()},
		}
	})
}

func TestMixedEagerAndRendezvousSamePair(t *testing.T) {
	net := netmodel.CrayXC40()
	small, big := int64(64), net.S*3
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Send(1, small, 0), trace.Send(1, big, 1), trace.Send(1, small, 2)},
		{trace.Recv(0, small, 0), trace.Recv(0, big, 1), trace.Recv(0, small, 2)},
	}}
	res := mustSim(t, tr, Config{Net: net})
	if res.Messages != 3 {
		t.Fatalf("mixed protocol pair delivered %d messages", res.Messages)
	}
	if res.BytesMoved != 2*small+big {
		t.Fatalf("bytes = %d", res.BytesMoved)
	}
}

func TestManyOutstandingIrecvs(t *testing.T) {
	// 32 irecvs posted before any send; waits in reverse order.
	const n = 32
	var ops0, ops1 []trace.Op
	for i := int32(0); i < n; i++ {
		ops1 = append(ops1, trace.Irecv(0, 64, i, i))
	}
	for i := int32(n - 1); i >= 0; i-- {
		ops1 = append(ops1, trace.Wait(i))
	}
	for i := int32(0); i < n; i++ {
		ops0 = append(ops0, trace.Send(1, 64, i))
	}
	tr := &trace.Trace{Ops: [][]trace.Op{ops0, ops1}}
	res := mustSim(t, tr, defaultCfg())
	if res.Messages != n {
		t.Fatalf("delivered %d of %d", res.Messages, n)
	}
}

func TestIsendToLateIrecv(t *testing.T) {
	// Eager isends buffered as unexpected, matched by irecvs posted
	// much later, then waited.
	net := netmodel.CrayXC40()
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Isend(1, 128, 5, 1), trace.Wait(1)},
		{trace.Calc(1 * s), trace.Irecv(0, 128, 5, 1), trace.Wait(1)},
	}}
	res := mustSim(t, tr, Config{Net: net})
	want := 1*s + net.RecvCPU(128)
	if res.FinishTimes[1] != want {
		t.Fatalf("late irecv finish %d, want %d", res.FinishTimes[1], want)
	}
}

func TestCrossedRendezvous(t *testing.T) {
	// Both ranks send large messages to each other and then receive:
	// blocking sends would deadlock in a strict rendezvous; using
	// isend+recv+wait must work.
	net := netmodel.CrayXC40()
	big := net.S * 2
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Isend(1, big, 0, 1), trace.Recv(1, big, 0), trace.Wait(1)},
		{trace.Isend(0, big, 0, 1), trace.Recv(0, big, 0), trace.Wait(1)},
	}}
	res := mustSim(t, tr, Config{Net: net})
	if res.Messages != 2 {
		t.Fatalf("crossed rendezvous delivered %d", res.Messages)
	}
}

func TestBlockingRendezvousDeadlockDetected(t *testing.T) {
	// The classic head-to-head blocking send deadlock above the eager
	// threshold must be detected, not hang.
	net := netmodel.CrayXC40()
	big := net.S * 2
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Send(1, big, 0), trace.Recv(1, big, 0)},
		{trace.Send(0, big, 0), trace.Recv(0, big, 0)},
	}}
	res, err := Simulate(tr, Config{Net: net})
	if err == nil || !res.Deadlocked {
		t.Fatal("head-to-head rendezvous deadlock not detected")
	}
}

func TestHeadToHeadEagerSendsComplete(t *testing.T) {
	// The same pattern below the threshold works (eager buffering).
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Send(1, 64, 0), trace.Recv(1, 64, 0)},
		{trace.Send(0, 64, 0), trace.Recv(0, 64, 0)},
	}}
	res := mustSim(t, tr, defaultCfg())
	if res.Messages != 2 {
		t.Fatalf("eager head-to-head delivered %d", res.Messages)
	}
}

func TestZeroByteMessages(t *testing.T) {
	net := netmodel.CrayXC40()
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Send(1, 0, 0)},
		{trace.Recv(0, 0, 0)},
	}}
	res := mustSim(t, tr, Config{Net: net})
	if res.FinishTimes[1] != net.EagerLatency(0) {
		t.Fatalf("zero-byte latency %d, want %d", res.FinishTimes[1], net.EagerLatency(0))
	}
}

func TestWaitBeforeArrivalBlocksExactly(t *testing.T) {
	// Receiver waits immediately; sender sends after a long compute.
	// The receiver's finish equals arrival + recv CPU.
	net := netmodel.CrayXC40()
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(2 * s), trace.Send(1, 256, 0)},
		{trace.Irecv(0, 256, 0, 1), trace.Wait(1)},
	}}
	res := mustSim(t, tr, Config{Net: net})
	want := 2*s + net.SendCPU(256) + net.Transit(256) + net.RecvCPU(256)
	if res.FinishTimes[1] != want {
		t.Fatalf("finish %d, want %d", res.FinishTimes[1], want)
	}
}

func TestSelfContainedRanksFinishIndependently(t *testing.T) {
	// A rank with no communication finishes at its compute time even
	// if others run long.
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(10 * ms)},
		{trace.Calc(10 * s)},
	}}
	res := mustSim(t, tr, defaultCfg())
	if res.FinishTimes[0] != 10*ms {
		t.Fatalf("independent rank delayed: %d", res.FinishTimes[0])
	}
}

func TestEmptyRankOps(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{},
		{trace.Calc(5)},
	}}
	res := mustSim(t, tr, defaultCfg())
	if res.FinishTimes[0] != 0 {
		t.Fatalf("empty rank finish %d", res.FinishTimes[0])
	}
}
