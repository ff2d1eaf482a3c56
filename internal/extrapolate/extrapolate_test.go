package extrapolate

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/collectives"
	"repro/internal/loggopsim"
	"repro/internal/netmodel"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func baseTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := tracegen.Generate("minife", 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFactorOne(t *testing.T) {
	tr := baseTrace(t)
	out, err := Extrapolate(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, tr) {
		t.Fatal("factor 1 is not an identity copy")
	}
	// Deep copy: mutating the output must not touch the input.
	out.Ops[0][0].Dur = 12345
	if tr.Ops[0][0].Dur == 12345 {
		t.Fatal("factor 1 shares storage with input")
	}
}

func TestBadArgs(t *testing.T) {
	if _, err := Extrapolate(&trace.Trace{}, 2); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := Extrapolate(baseTrace(t), 0); err == nil {
		t.Fatal("factor 0 accepted")
	}
}

func TestRankCount(t *testing.T) {
	tr := baseTrace(t)
	out, err := Extrapolate(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRanks() != 32 {
		t.Fatalf("ranks = %d, want 32", out.NumRanks())
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("extrapolated trace invalid: %v", err)
	}
}

func TestP2PStaysInGroup(t *testing.T) {
	tr := baseTrace(t)
	p := tr.NumRanks()
	out, err := Extrapolate(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r, ops := range out.Ops {
		group := int32(r / p)
		for _, op := range ops {
			switch op.Kind {
			case trace.OpSend, trace.OpIsend, trace.OpRecv, trace.OpIrecv:
				if op.Peer/int32(p) != group {
					t.Fatalf("rank %d (group %d) talks to rank %d outside its group", r, group, op.Peer)
				}
			}
		}
	}
}

func TestCollectivesSpanAllRanks(t *testing.T) {
	tr := baseTrace(t)
	out, err := Extrapolate(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Every rank has the same collective count as the original rank 0.
	want := 0
	for _, op := range tr.Ops[0] {
		if op.Kind.IsCollective() {
			want++
		}
	}
	for r, ops := range out.Ops {
		got := 0
		for _, op := range ops {
			if op.Kind.IsCollective() {
				got++
			}
		}
		if got != want {
			t.Fatalf("rank %d has %d collectives, want %d", r, got, want)
		}
	}
}

func TestRootedRootsPreserved(t *testing.T) {
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Bcast(1, 64)},
		{trace.Bcast(1, 64)},
	}}
	out, err := Extrapolate(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	for r, ops := range out.Ops {
		if ops[0].Peer != 1 {
			t.Fatalf("rank %d bcast root = %d, want 1", r, ops[0].Peer)
		}
	}
}

func TestExtrapolatedTraceSimulates(t *testing.T) {
	tr := baseTrace(t)
	out, err := Extrapolate(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := collectives.Expand(out, collectives.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := loggopsim.Simulate(ex, loggopsim.Config{Net: netmodel.CrayXC40()})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
}

func TestExtrapolationPreservesGroupMakespanWithoutCollectives(t *testing.T) {
	// A p2p-only trace extrapolated k times is k independent copies:
	// the makespan must be identical to the original's.
	tr := &trace.Trace{Ops: [][]trace.Op{
		{trace.Calc(1000), trace.Send(1, 64, 0)},
		{trace.Recv(0, 64, 0), trace.Calc(500)},
	}}
	orig, err := loggopsim.Simulate(tr, loggopsim.Config{Net: netmodel.CrayXC40()})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Extrapolate(tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	big, err := loggopsim.Simulate(out, loggopsim.Config{Net: netmodel.CrayXC40()})
	if err != nil {
		t.Fatal(err)
	}
	if big.Makespan != orig.Makespan {
		t.Fatalf("p2p-only extrapolation changed makespan: %d vs %d", big.Makespan, orig.Makespan)
	}
}

// Property: extrapolation preserves per-rank op counts and keeps traces
// valid for any workload and small factor.
func TestQuickExtrapolationValid(t *testing.T) {
	names := tracegen.Names()
	f := func(nameSel, factorRaw uint8, seed uint64) bool {
		name := names[int(nameSel)%len(names)]
		n := tracegen.PreferredRanks(name, 16)
		if n < 2 {
			n = 8
		}
		tr, err := tracegen.Generate(name, n, 1, seed)
		if err != nil {
			return false
		}
		factor := 1 + int(factorRaw)%4
		out, err := Extrapolate(tr, factor)
		if err != nil {
			return false
		}
		if out.NumRanks() != n*factor {
			return false
		}
		if len(out.Ops[0]) != len(tr.Ops[0]) {
			return false
		}
		return out.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
