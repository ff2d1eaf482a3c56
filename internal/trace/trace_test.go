package trace

import (
	"strings"
	"testing"
)

// twoRankPingPong builds a minimal valid trace used across tests.
func twoRankPingPong() *Trace {
	return &Trace{
		Name: "pingpong",
		Ops: [][]Op{
			{Calc(100), Send(1, 1024, 7), Recv(1, 1024, 8), Allreduce(8)},
			{Calc(50), Recv(0, 1024, 7), Send(0, 1024, 8), Allreduce(8)},
		},
	}
}

func TestValidateOK(t *testing.T) {
	tr := twoRankPingPong()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateEmpty(t *testing.T) {
	tr := &Trace{}
	if err := tr.Validate(); err != ErrEmptyTrace {
		t.Fatalf("empty trace: got %v, want ErrEmptyTrace", err)
	}
}

func TestValidatePeerOutOfRange(t *testing.T) {
	tr := &Trace{Ops: [][]Op{{Send(5, 8, 0)}}}
	if err := tr.Validate(); err == nil {
		t.Fatal("out-of-range peer accepted")
	}
}

func TestValidateSelfSend(t *testing.T) {
	tr := &Trace{Ops: [][]Op{{Send(0, 8, 0)}}}
	if err := tr.Validate(); err == nil {
		t.Fatal("self-send accepted")
	}
}

func TestValidateUnknownWait(t *testing.T) {
	tr := &Trace{Ops: [][]Op{{Wait(3)}}}
	if err := tr.Validate(); err == nil {
		t.Fatal("wait on unknown request accepted")
	}
}

func TestValidateRequestReuse(t *testing.T) {
	tr := &Trace{Ops: [][]Op{
		{Isend(1, 8, 0, 1), Isend(1, 8, 0, 1), WaitAll()},
		{Recv(0, 8, 0), Recv(0, 8, 0)},
	}}
	if err := tr.Validate(); err == nil {
		t.Fatal("reused outstanding request accepted")
	}
}

func TestValidateUnwaitedRequest(t *testing.T) {
	tr := &Trace{Ops: [][]Op{
		{Isend(1, 8, 0, 1)},
		{Recv(0, 8, 0)},
	}}
	if err := tr.Validate(); err == nil {
		t.Fatal("unwaited request accepted")
	}
}

func TestValidateWaitAllClears(t *testing.T) {
	tr := &Trace{Ops: [][]Op{
		{Isend(1, 8, 0, 1), Irecv(1, 8, 1, 2), WaitAll(), Isend(1, 8, 2, 1), Wait(1)},
		{Recv(0, 8, 0), Send(0, 8, 1), Recv(0, 8, 2)},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatalf("waitall trace rejected: %v", err)
	}
}

func TestValidateCollectiveMismatch(t *testing.T) {
	tr := &Trace{Ops: [][]Op{
		{Bcast(0, 8)},
		{Allreduce(8)},
	}}
	if err := tr.Validate(); err == nil {
		t.Fatal("mismatched collective sequence accepted")
	}
}

func TestValidateCollectiveCountMismatch(t *testing.T) {
	tr := &Trace{Ops: [][]Op{
		{Allreduce(8), Allreduce(8)},
		{Allreduce(8)},
	}}
	if err := tr.Validate(); err == nil {
		t.Fatal("mismatched collective count accepted")
	}
}

func TestValidateNegativeSize(t *testing.T) {
	tr := &Trace{Ops: [][]Op{{{Kind: OpSend, Peer: 1, Size: -5}}, {}}}
	if err := tr.Validate(); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestValidateRootOutOfRange(t *testing.T) {
	tr := &Trace{Ops: [][]Op{{Bcast(9, 8)}}}
	if err := tr.Validate(); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestClone(t *testing.T) {
	tr := twoRankPingPong()
	cp := tr.Clone()
	cp.Ops[0][0].Dur = 999
	if tr.Ops[0][0].Dur == 999 {
		t.Fatal("clone shares op storage with original")
	}
	if cp.Name != tr.Name || cp.NumRanks() != tr.NumRanks() {
		t.Fatal("clone metadata mismatch")
	}
}

func TestKindString(t *testing.T) {
	cases := map[OpKind]string{
		OpCalc: "calc", OpSend: "send", OpBcast: "bcast", OpAllreduce: "allreduce",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if got := OpKind(200).String(); !strings.Contains(got, "200") {
		t.Fatalf("unknown kind string = %q", got)
	}
}

func TestIsCollective(t *testing.T) {
	for _, k := range []OpKind{OpBcast, OpAllreduce} {
		if !k.IsCollective() {
			t.Fatalf("%s not marked collective", k)
		}
	}
	for _, k := range []OpKind{OpCalc, OpSend, OpRecv, OpIsend, OpIrecv, OpWait, OpWaitAll} {
		if k.IsCollective() {
			t.Fatalf("%s wrongly marked collective", k)
		}
	}
}
