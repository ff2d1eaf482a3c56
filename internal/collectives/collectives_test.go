package collectives

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// rankCounts covers powers of two, non-powers, primes, and tiny sizes.
var rankCounts = []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 32, 33, 64, 100}

// uniformTrace builds a trace where every rank executes the same single
// collective op.
func uniformTrace(n int, op trace.Op) *trace.Trace {
	t := &trace.Trace{Name: "coll", Ops: make([][]trace.Op, n)}
	for r := range t.Ops {
		t.Ops[r] = []trace.Op{op}
	}
	return t
}

func expandAndRun(t *testing.T, n int, op trace.Op, cfg Config) ([]knowledge, []rankStats) {
	t.Helper()
	tr := uniformTrace(n, op)
	ex, err := Expand(tr, cfg)
	if err != nil {
		t.Fatalf("n=%d %s: expand: %v", n, op.Kind, err)
	}
	if err := ex.Validate(); err != nil {
		t.Fatalf("n=%d %s: expanded trace invalid: %v", n, op.Kind, err)
	}
	know, stats, err := runDataFlow(ex)
	if err != nil {
		t.Fatalf("n=%d %s: dataflow: %v", n, op.Kind, err)
	}
	for r, st := range stats {
		if st.Leftover != 0 {
			t.Fatalf("n=%d %s: rank %d has %d unconsumed messages", n, op.Kind, r, st.Leftover)
		}
	}
	return know, stats
}

func TestBcastReachesAll(t *testing.T) {
	for _, n := range rankCounts {
		for _, root := range []int32{0, int32(n / 2), int32(n - 1)} {
			if root >= int32(n) {
				continue
			}
			know, _ := expandAndRun(t, n, trace.Bcast(root, 1024), Config{})
			for r, k := range know {
				if !k.has(root) {
					t.Fatalf("n=%d root=%d: rank %d never received the broadcast", n, root, r)
				}
			}
		}
	}
}

func TestAllreduceAlgorithms(t *testing.T) {
	algos := []AllreduceAlgo{AllreduceRecursiveDoubling, AllreduceRabenseifner, AllreduceRing, AllreduceAuto}
	for _, algo := range algos {
		for _, n := range rankCounts {
			know, _ := expandAndRun(t, n, trace.Allreduce(4096), Config{Allreduce: algo})
			for r, k := range know {
				if !k.full(int32(n)) {
					t.Fatalf("algo=%s n=%d: rank %d allreduce result incomplete", algo, n, r)
				}
			}
		}
	}
}

func TestAllreduceAutoSwitches(t *testing.T) {
	// Small payload should use recursive doubling, large Rabenseifner;
	// verify by comparing op counts with the forced variants at a
	// power-of-two rank count where the two differ.
	n := 32
	small := uniformTrace(n, trace.Allreduce(8))
	large := uniformTrace(n, trace.Allreduce(1<<20))
	autoSmall, err := Expand(small, Config{Allreduce: AllreduceAuto})
	if err != nil {
		t.Fatal(err)
	}
	rdSmall, err := Expand(small, Config{Allreduce: AllreduceRecursiveDoubling})
	if err != nil {
		t.Fatal(err)
	}
	if autoSmall.NumOps() != rdSmall.NumOps() {
		t.Fatalf("auto small != recursive doubling: %d vs %d ops", autoSmall.NumOps(), rdSmall.NumOps())
	}
	autoLarge, err := Expand(large, Config{Allreduce: AllreduceAuto})
	if err != nil {
		t.Fatal(err)
	}
	rabLarge, err := Expand(large, Config{Allreduce: AllreduceRabenseifner})
	if err != nil {
		t.Fatal(err)
	}
	if autoLarge.NumOps() != rabLarge.NumOps() {
		t.Fatalf("auto large != rabenseifner: %d vs %d ops", autoLarge.NumOps(), rabLarge.NumOps())
	}
}

func TestBytesConservation(t *testing.T) {
	// Total bytes sent must equal total bytes received for every
	// expansion (nothing is dropped, nothing received twice).
	ops := []trace.Op{
		trace.Bcast(0, 512), trace.Bcast(1, 512),
		trace.Allreduce(2048), trace.Allreduce(1 << 20),
	}
	for _, op := range ops {
		for _, n := range []int{2, 5, 8, 17} {
			_, stats := expandAndRun(t, n, op, Config{})
			var sent, recv int64
			for _, s := range stats {
				sent += s.BytesSent
				recv += s.BytesRecv
			}
			if sent != recv {
				t.Fatalf("%s n=%d: sent %d != received %d", op.Kind, n, sent, recv)
			}
		}
	}
}

func TestSingleRankCollectivesAreEmpty(t *testing.T) {
	ops := []trace.Op{
		trace.Bcast(0, 512), trace.Allreduce(2048), trace.Allreduce(1 << 20),
	}
	for _, op := range ops {
		ex, err := Expand(uniformTrace(1, op), Config{})
		if err != nil {
			t.Fatalf("%s: %v", op.Kind, err)
		}
		if len(ex.Ops[0]) != 0 {
			t.Fatalf("%s: single-rank collective emitted %d ops", op.Kind, len(ex.Ops[0]))
		}
	}
}

func TestExpandPreservesP2PAndCalc(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(100), trace.Send(1, 64, 5), trace.Allreduce(8), trace.Recv(1, 64, 6)},
		{trace.Recv(0, 64, 5), trace.Allreduce(8), trace.Calc(50), trace.Send(0, 64, 6)},
	}}
	ex, err := Expand(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Ops[0][0] != trace.Calc(100) || ex.Ops[0][1] != trace.Send(1, 64, 5) {
		t.Fatal("non-collective prefix not preserved")
	}
	last := ex.Ops[0][len(ex.Ops[0])-1]
	if last != trace.Recv(1, 64, 6) {
		t.Fatalf("non-collective suffix not preserved: %+v", last)
	}
}

func TestExpandDistinctTagsPerInstance(t *testing.T) {
	tr := uniformTrace(4, trace.Allreduce(8))
	for r := range tr.Ops {
		tr.Ops[r] = append(tr.Ops[r], trace.Allreduce(8))
	}
	ex, err := Expand(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tags := map[int32]bool{}
	for _, op := range ex.Ops[0] {
		if op.Kind == trace.OpSend {
			tags[op.Tag] = true
		}
	}
	if len(tags) != 2 {
		t.Fatalf("two allreduces produced %d distinct tags, want 2", len(tags))
	}
}

func TestExpandRejectsReservedTag(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Send(1, 8, TagBase)},
		{trace.Recv(0, 8, TagBase)},
	}}
	if _, err := Expand(tr, Config{}); err == nil {
		t.Fatal("reserved tag accepted")
	}
}

func TestExpandRejectsReservedReq(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Isend(1, 8, 0, ReqBase), trace.Wait(ReqBase)},
		{trace.Recv(0, 8, 0)},
	}}
	if _, err := Expand(tr, Config{}); err == nil {
		t.Fatal("reserved request id accepted")
	}
}

func TestExpandRejectsMismatchedCollectives(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Bcast(0, 8)},
		{trace.Allreduce(8)},
	}}
	if _, err := Expand(tr, Config{}); err == nil {
		t.Fatal("mismatched collectives accepted")
	}
	tr2 := &trace.Trace{Ops: [][]trace.Op{
		{trace.Allreduce(8)},
		{trace.Allreduce(16)},
	}}
	if _, err := Expand(tr2, Config{}); err == nil {
		t.Fatal("mismatched collective sizes accepted")
	}
}

func TestExpandEmptyTrace(t *testing.T) {
	if _, err := Expand(&trace.Trace{}, Config{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestBcastMessageCount(t *testing.T) {
	// A binomial broadcast sends exactly n-1 messages in total.
	for _, n := range rankCounts {
		ex, err := Expand(uniformTrace(n, trace.Bcast(0, 8)), Config{})
		if err != nil {
			t.Fatal(err)
		}
		sends := 0
		for _, ops := range ex.Ops {
			for _, op := range ops {
				if op.Kind == trace.OpSend || op.Kind == trace.OpIsend {
					sends++
				}
			}
		}
		if sends != n-1 {
			t.Fatalf("n=%d: binomial bcast sent %d messages, want %d", n, sends, n-1)
		}
	}
}

// Property: expansion of any single collective at any rank count yields a
// valid, deadlock-free trace with conserved bytes.
func TestQuickExpansionSound(t *testing.T) {
	f := func(nRaw uint8, bcast bool, rootRaw uint8, sizeRaw uint16, algoSel uint8) bool {
		n := 2 + int(nRaw%40)
		size := int64(sizeRaw) + 1
		op := trace.Allreduce(size)
		if bcast {
			op = trace.Bcast(int32(int(rootRaw)%n), size)
		}
		cfg := Config{Allreduce: AllreduceAlgo(algoSel % 4)}
		ex, err := Expand(uniformTrace(n, op), cfg)
		if err != nil {
			return false
		}
		if err := ex.Validate(); err != nil {
			return false
		}
		_, stats, err := runDataFlow(ex)
		if err != nil {
			return false
		}
		var sent, recv int64
		for _, s := range stats {
			sent += s.BytesSent
			recv += s.BytesRecv
			if s.Leftover != 0 {
				return false
			}
		}
		return sent == recv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExpandAllreduce1024(b *testing.B) {
	tr := uniformTrace(1024, trace.Allreduce(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Expand(tr, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
