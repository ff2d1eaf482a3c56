package loggopsim

import (
	"math"
	"testing"

	"repro/internal/collectives"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/trace"
)

const (
	us = int64(1000)
	ms = int64(1000 * 1000)
	s  = int64(1000 * 1000 * 1000)
)

func mustSim(t *testing.T, tr *trace.Trace, cfg Config) *Result {
	t.Helper()
	return mustRun(t, tr, cfg, nil)
}

// mustRun simulates tr under cfg and the noise model nm.
func mustRun(t *testing.T, tr *trace.Trace, cfg Config, nm noise.Model) *Result {
	t.Helper()
	sim, err := NewSimulator(tr, cfg)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	res, err := sim.Run(nm)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return res
}

func defaultCfg() Config { return Config{Net: netmodel.CrayXC40()} }

// delayModel is a test noise model adding a fixed delay to the first
// CPU interval on one rank.
type delayModel struct {
	rank    int32
	delay   int64
	applied bool
}

func (d *delayModel) Extend(node int32, start, dur int64) int64 {
	if node == d.rank && !d.applied {
		d.applied = true
		return start + dur + d.delay
	}
	return start + dur
}

// NextArrival returns math.MinInt64: consult the model on every interval.
func (d *delayModel) NextArrival(int32) int64 { return math.MinInt64 }

func TestEmptyTrace(t *testing.T) {
	if _, err := Simulate(&trace.Trace{}, defaultCfg()); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestBadNetRejected(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{{trace.Calc(1)}}}
	if _, err := Simulate(tr, Config{Net: netmodel.Params{L: -1}}); err == nil {
		t.Fatal("invalid network params accepted")
	}
}

func TestCalcOnly(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(100), trace.Calc(200)},
		{trace.Calc(500)},
	}}
	res := mustSim(t, tr, defaultCfg())
	if res.Makespan != 500 {
		t.Fatalf("makespan = %d, want 500", res.Makespan)
	}
	if res.FinishTimes[0] != 300 || res.FinishTimes[1] != 500 {
		t.Fatalf("finish times %v, want [300 500]", res.FinishTimes)
	}
}

func TestPingPongClosedForm(t *testing.T) {
	net := netmodel.CrayXC40()
	for _, size := range []int64{1, 64, 1024, net.S} {
		tr := &trace.Trace{Ops: [][]trace.Op{
			{trace.Send(1, size, 0), trace.Recv(1, size, 1)},
			{trace.Recv(0, size, 0), trace.Send(0, size, 1)},
		}}
		res := mustSim(t, tr, Config{Net: net})
		want := 2 * net.EagerLatency(size)
		if res.Makespan != want {
			t.Fatalf("size %d: ping-pong makespan %d, want closed-form %d", size, res.Makespan, want)
		}
	}
}

func TestEagerLatencyClosedForm(t *testing.T) {
	net := netmodel.CrayXC40()
	size := int64(512)
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Send(1, size, 0)},
		{trace.Recv(0, size, 0)},
	}}
	res := mustSim(t, tr, Config{Net: net})
	if res.FinishTimes[1] != net.EagerLatency(size) {
		t.Fatalf("one-way latency %d, want %d", res.FinishTimes[1], net.EagerLatency(size))
	}
	// Sender finishes after only its CPU overhead.
	if res.FinishTimes[0] != net.SendCPU(size) {
		t.Fatalf("sender finish %d, want %d", res.FinishTimes[0], net.SendCPU(size))
	}
}

func TestMessageCounting(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Send(1, 100, 0), trace.Send(1, 200, 1)},
		{trace.Recv(0, 100, 0), trace.Recv(0, 200, 1)},
	}}
	res := mustSim(t, tr, defaultCfg())
	if res.Messages != 2 {
		t.Fatalf("messages = %d, want 2", res.Messages)
	}
	if res.BytesMoved != 300 {
		t.Fatalf("bytes = %d, want 300", res.BytesMoved)
	}
}

func TestUnexpectedMessage(t *testing.T) {
	// Send arrives long before the receive is posted.
	net := netmodel.CrayXC40()
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Send(1, 8, 0)},
		{trace.Calc(1 * s), trace.Recv(0, 8, 0)},
	}}
	res := mustSim(t, tr, Config{Net: net})
	want := 1*s + net.RecvCPU(8)
	if res.FinishTimes[1] != want {
		t.Fatalf("late recv finish %d, want %d", res.FinishTimes[1], want)
	}
}

func TestTagSelective(t *testing.T) {
	// Receiver wants tag 2 first even though tag 1 arrives first.
	net := netmodel.CrayXC40()
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Send(1, 8, 1), trace.Send(1, 8, 2)},
		{trace.Recv(0, 8, 2), trace.Recv(0, 8, 1)},
	}}
	res := mustSim(t, tr, Config{Net: net})
	if res.Messages != 2 {
		t.Fatalf("matched %d, want 2", res.Messages)
	}
}

func TestIsendIrecvWait(t *testing.T) {
	net := netmodel.CrayXC40()
	size := int64(256)
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Isend(1, size, 0, 1), trace.Calc(10 * us), trace.Wait(1)},
		{trace.Irecv(0, size, 0, 1), trace.Calc(10 * us), trace.Wait(1)},
	}}
	res := mustSim(t, tr, Config{Net: net})
	// Receiver: irecv free, calc 10us, then wait charges RecvCPU after
	// both calc end and arrival.
	arr := net.SendCPU(size) + net.Transit(size)
	start := max(10*us, arr)
	want := start + net.RecvCPU(size)
	if res.FinishTimes[1] != want {
		t.Fatalf("irecv+wait finish %d, want %d", res.FinishTimes[1], want)
	}
}

func TestWaitAll(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Isend(1, 8, 0, 1), trace.Isend(1, 8, 1, 2), trace.WaitAll()},
		{trace.Irecv(0, 8, 0, 1), trace.Irecv(0, 8, 1, 2), trace.WaitAll()},
	}}
	res := mustSim(t, tr, defaultCfg())
	if res.Messages != 2 {
		t.Fatalf("messages = %d, want 2", res.Messages)
	}
}

func TestRendezvousSynchronizes(t *testing.T) {
	net := netmodel.CrayXC40()
	big := net.S + 1
	lateness := 5 * s
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Send(1, big, 0)},
		{trace.Calc(lateness), trace.Recv(0, big, 0)},
	}}
	res := mustSim(t, tr, Config{Net: net})
	// The blocking rendezvous send cannot complete before the receiver
	// posts at t=5s.
	if res.FinishTimes[0] < lateness {
		t.Fatalf("rendezvous sender finished at %d, before receiver posted at %d", res.FinishTimes[0], lateness)
	}
}

func TestEagerDoesNotSynchronize(t *testing.T) {
	net := netmodel.CrayXC40()
	small := net.S
	lateness := 5 * s
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Send(1, small, 0)},
		{trace.Calc(lateness), trace.Recv(0, small, 0)},
	}}
	res := mustSim(t, tr, Config{Net: net})
	if res.FinishTimes[0] >= lateness {
		t.Fatalf("eager sender blocked until receiver: %d", res.FinishTimes[0])
	}
}

func TestRendezvousIsendWait(t *testing.T) {
	net := netmodel.CrayXC40()
	big := 10 * net.S
	lateness := 2 * s
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Isend(1, big, 0, 1), trace.Calc(100 * us), trace.Wait(1)},
		{trace.Calc(lateness), trace.Recv(0, big, 0)},
	}}
	res := mustSim(t, tr, Config{Net: net})
	// Wait(1) completes only after CTS (receiver posted at 2s).
	if res.FinishTimes[0] < lateness {
		t.Fatalf("rendezvous isend wait finished at %d, before receiver posted", res.FinishTimes[0])
	}
	if res.FinishTimes[1] < lateness+net.Transit(big) {
		t.Fatalf("receiver finished before payload could arrive: %d", res.FinishTimes[1])
	}
}

func TestRendezvousIrecvFirst(t *testing.T) {
	// Receiver posts irecv long before sender sends: handshake happens
	// at RTS arrival.
	net := netmodel.CrayXC40()
	big := net.S * 4
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(1 * s), trace.Send(1, big, 0)},
		{trace.Irecv(0, big, 0, 1), trace.Wait(1)},
	}}
	res := mustSim(t, tr, Config{Net: net})
	if res.Messages != 1 {
		t.Fatalf("messages = %d, want 1", res.Messages)
	}
	if res.FinishTimes[1] < 1*s {
		t.Fatalf("receiver done at %d before sender even started", res.FinishTimes[1])
	}
}

func TestDeadlockDetected(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Recv(1, 8, 0)},
		{trace.Recv(0, 8, 0)},
	}}
	res, err := Simulate(tr, defaultCfg())
	if err == nil {
		t.Fatal("deadlock not reported")
	}
	if !res.Deadlocked {
		t.Fatal("Deadlocked flag not set")
	}
}

func TestNICGapSerializesInjections(t *testing.T) {
	// Two back-to-back eager sends: the second arrives at least
	// NICGap after the first's injection.
	net := netmodel.CrayXC40()
	size := int64(1024)
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Send(1, size, 0), trace.Send(1, size, 1)},
		{trace.Recv(0, size, 0), trace.Recv(0, size, 1)},
	}}
	res := mustSim(t, tr, Config{Net: net})
	// First injection at SendCPU; second CPU done at 2*SendCPU but NIC
	// free only at SendCPU+NICGap.
	firstInj := net.SendCPU(size)
	secondInj := max(2*net.SendCPU(size), firstInj+net.NICGap(size))
	wantArr := secondInj + net.Transit(size)
	want := max(net.SendCPU(size)+net.Transit(size)+net.RecvCPU(size), wantArr) + net.RecvCPU(size)
	if res.FinishTimes[1] != want {
		t.Fatalf("receiver finish %d, want %d (NIC gap not enforced?)", res.FinishTimes[1], want)
	}
}

func TestDelayPropagatesAlongDependencies(t *testing.T) {
	// The Fig. 1 scenario: p0 -> p1 -> p2 message chain; a detour on p0
	// delays p2 even though they never communicate directly.
	base := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(100 * us), trace.Send(1, 8, 0)},
		{trace.Recv(0, 8, 0), trace.Send(2, 8, 0)},
		{trace.Recv(1, 8, 0)},
	}}
	clean := mustSim(t, base, defaultCfg())
	delay := 50 * ms
	noisy := mustRun(t, base, defaultCfg(), &delayModel{rank: 0, delay: delay})
	shift := noisy.FinishTimes[2] - clean.FinishTimes[2]
	if shift != delay {
		t.Fatalf("p2 shifted by %d, want full detour %d", shift, delay)
	}
}

func TestDelayOnNonCriticalPathAbsorbed(t *testing.T) {
	// p1 has slack: a small detour on p1's first interval is absorbed.
	base := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(100 * ms), trace.Send(1, 8, 0)},
		{trace.Calc(1 * ms), trace.Recv(0, 8, 0)},
	}}
	clean := mustSim(t, base, defaultCfg())
	noisy := mustRun(t, base, defaultCfg(), &delayModel{rank: 1, delay: 10 * ms})
	if noisy.Makespan != clean.Makespan {
		t.Fatalf("slack did not absorb detour: %d vs %d", noisy.Makespan, clean.Makespan)
	}
}

func simCollective(t *testing.T, n int, op trace.Op, cfg Config) *Result {
	t.Helper()
	tr := &trace.Trace{Ops: make([][]trace.Op, n)}
	for r := range tr.Ops {
		tr.Ops[r] = []trace.Op{op}
	}
	ex, err := collectives.Expand(tr, collectives.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return mustSim(t, ex, cfg)
}

// disseminationBarrier returns a barrier over n ranks as
// point-to-point ops: ceil(log2 n) rounds, in round k each rank posts a
// 0-byte receive from the rank 2^k below it, sends to the rank 2^k above
// it and waits for the receive.
func disseminationBarrier(n int) *trace.Trace {
	tr := &trace.Trace{Name: "barrier", Ops: make([][]trace.Op, n)}
	for r := range tr.Ops {
		for dist, req := 1, int32(0); dist < n; dist, req = dist*2, req+1 {
			tr.Ops[r] = append(tr.Ops[r], trace.Irecv(int32((r-dist+n)%n), 0, 0, req),
				trace.Send(int32((r+dist)%n), 0, 0), trace.Wait(req))
		}
	}
	return tr
}

func TestBarrierClosedForm(t *testing.T) {
	// Dissemination barrier with 0-byte messages: every round costs
	// o (send) + L + o (recv at wait); rounds = ceil(log2 n).
	net := netmodel.CrayXC40()
	for _, n := range []int{2, 4, 8, 16, 32} {
		res := mustSim(t, disseminationBarrier(n), Config{Net: net})
		rounds := 0
		for v := 1; v < n; v *= 2 {
			rounds++
		}
		want := int64(rounds) * (2*net.O + net.L)
		if res.Makespan != want {
			t.Fatalf("n=%d: barrier makespan %d, want %d", n, res.Makespan, want)
		}
	}
}

func TestBarrierNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 7, 13, 100} {
		res := mustSim(t, disseminationBarrier(n), defaultCfg())
		if res.Deadlocked {
			t.Fatalf("n=%d: barrier deadlocked", n)
		}
		if res.Makespan <= 0 {
			t.Fatalf("n=%d: zero makespan", n)
		}
	}
}

func TestAllCollectivesSimulate(t *testing.T) {
	ops := []trace.Op{
		trace.Bcast(0, 1024), trace.Bcast(1, 64),
		trace.Allreduce(64), trace.Allreduce(64 << 10),
	}
	for _, op := range ops {
		for _, n := range []int{2, 5, 16, 33} {
			res := simCollective(t, n, op, defaultCfg())
			if res.Makespan <= 0 {
				t.Fatalf("%s n=%d: makespan %d", op.Kind, n, res.Makespan)
			}
		}
	}
}

func TestLargeAllreduceRendezvousPath(t *testing.T) {
	// Payload above S exercises the rendezvous path inside an expanded
	// collective.
	net := netmodel.CrayXC40()
	res := simCollective(t, 8, trace.Allreduce(net.S*8), Config{Net: net})
	if res.Messages == 0 {
		t.Fatal("no messages delivered")
	}
}

func TestDeterministicWithCENoise(t *testing.T) {
	tr := &trace.Trace{Ops: make([][]trace.Op, 16)}
	for r := range tr.Ops {
		var ops []trace.Op
		for i := 0; i < 50; i++ {
			ops = append(ops, trace.Calc(1*ms), trace.Allreduce(8))
		}
		tr.Ops[r] = ops
	}
	ex, err := collectives.Expand(tr, collectives.Config{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() int64 {
		nm, err := noise.NewCE(16, noise.Config{
			Seed: 42, MTBCE: 10 * ms, Duration: noise.Fixed(100 * us), Target: noise.AllNodes,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := mustRun(t, ex, defaultCfg(), nm)
		return res.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different makespans: %d vs %d", a, b)
	}
}

func TestNoiseNeverSpeedsUp(t *testing.T) {
	tr := &trace.Trace{Ops: make([][]trace.Op, 8)}
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
	clean := mustSim(t, ex, defaultCfg())
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		nm, err := noise.NewCE(8, noise.Config{
			Seed: seed, MTBCE: 20 * ms, Duration: noise.Fixed(1 * ms), Target: noise.AllNodes,
		})
		if err != nil {
			t.Fatal(err)
		}
		noisy := mustRun(t, ex, defaultCfg(), nm)
		if noisy.Makespan < clean.Makespan {
			t.Fatalf("seed %d: noise shortened makespan %d -> %d", seed, clean.Makespan, noisy.Makespan)
		}
	}
}

func TestSingleNodeNoiseOnlyDelaysViaDependencies(t *testing.T) {
	// Two disconnected pairs; CE noise targeted at rank 0 must not
	// delay the pair (2,3).
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(100 * ms), trace.Send(1, 8, 0)},
		{trace.Recv(0, 8, 0)},
		{trace.Calc(100 * ms), trace.Send(3, 8, 0)},
		{trace.Recv(2, 8, 0)},
	}}
	clean := mustSim(t, tr, defaultCfg())
	nm, err := noise.NewCE(4, noise.Config{
		Seed: 7, MTBCE: 1 * ms, Duration: noise.Fixed(1 * ms), Target: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	noisy := mustRun(t, tr, defaultCfg(), nm)
	if noisy.FinishTimes[3] != clean.FinishTimes[3] {
		t.Fatalf("noise on rank 0 delayed unrelated rank 3: %d vs %d",
			noisy.FinishTimes[3], clean.FinishTimes[3])
	}
	if noisy.FinishTimes[1] <= clean.FinishTimes[1] {
		t.Fatal("noise on rank 0 did not delay its dependent rank 1")
	}
}

func TestEventsCounted(t *testing.T) {
	res := simCollective(t, 8, trace.Allreduce(8), defaultCfg())
	if res.Events == 0 {
		t.Fatal("no events counted")
	}
}

func BenchmarkBarrier1024(b *testing.B) {
	tr := disseminationBarrier(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, Config{Net: netmodel.CrayXC40()}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHaloExchange256(b *testing.B) {
	// 16x16 2D halo exchange, 10 iterations.
	const side = 16
	n := side * side
	tr := &trace.Trace{Ops: make([][]trace.Op, n)}
	for r := 0; r < n; r++ {
		x, y := r%side, r/side
		nb := []int32{
			int32(((x+1)%side + y*side)),
			int32(((x-1+side)%side + y*side)),
			int32((x + ((y+1)%side)*side)),
			int32((x + ((y-1+side)%side)*side)),
		}
		var ops []trace.Op
		for it := 0; it < 10; it++ {
			ops = append(ops, trace.Calc(1*ms))
			req := int32(0)
			for _, p := range nb {
				ops = append(ops, trace.Irecv(p, 4096, 0, req))
				req++
			}
			for _, p := range nb {
				ops = append(ops, trace.Isend(p, 4096, 0, req))
				req++
			}
			ops = append(ops, trace.WaitAll())
		}
		tr.Ops[r] = ops
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, Config{Net: netmodel.CrayXC40()}); err != nil {
			b.Fatal(err)
		}
	}
}
