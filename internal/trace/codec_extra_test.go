package trace

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestTextLargeValues(t *testing.T) {
	tr := &Trace{Ops: [][]Op{
		{Calc(1 << 60), Send(1, 1<<40, 1<<20)},
		{Recv(0, 1<<40, 1<<20)},
	}}
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ops[0][0].Dur != 1<<60 || got.Ops[0][1].Size != 1<<40 {
		t.Fatalf("large values mangled: %+v", got.Ops[0])
	}
}

// TestTextRefusesOutsideTheGrammar holds ReadText to its one acceptance
// rule: every row is text that WriteText never writes, and each was
// accepted (or misread) before the rule.
func TestTextRefusesOutsideTheGrammar(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"peer wider than 32 bits", "ranks 2\nrank 0\nsend 4294967297 8 0\nrank 1\nrecv 0 8 0\n", `line 3: bad peer "4294967297"`},
		{"tag wider than 32 bits", "ranks 2\nrank 0\nsend 1 8 4294967296\nrank 1\n", `line 3: bad tag "4294967296"`},
		{"req wider than 32 bits", "ranks 2\nrank 0\nisend 1 8 0 4294967296\nwait 0\nrank 1\n", `line 3: bad req "4294967296"`},
		{"second ranks line", "ranks 2\nrank 0\ncalc 5\nranks 1\nrank 0\ncalc 1\n", "line 4: want exactly one ranks line"},
		{"extra operands", "ranks 1\nrank 0\ncalc 100 junk extra\n", "line 3: calc takes 1 operands, got 3"},
		{"trace Validate refuses", "ranks 2\nrank 0\nsend 7 8 0\nrank 1\n", "peer 7 out of range"},
		{"missing rank header", "ranks 2\nrank 0\ncalc 1\n", "found 1 rank headers"},
		{"rank headers out of order", "ranks 2\nrank 1\nrank 0\n", "line 2: want rank headers 0 to 1 in order"},
		{"repeated rank header", "ranks 2\nrank 0\nrank 1\nrank 0\n", "line 4: want rank headers"},
		{"second trace line", "trace a\ntrace b\nranks 1\nrank 0\n", "line 2: want at most one trace line"},
		{"two names", "trace a b\nranks 1\nrank 0\n", "line 1: want at most one trace line"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := ReadText(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("accepted %q as %+v", tc.in, tr)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not say %q", err, tc.want)
			}
		})
	}
}

// TestTextRefusesCollectivesNoWorkloadIssues: the format speaks bcast
// and allreduce only, so a line that names another collective, spelled
// with the operands such a kind would take, is an unknown op at its
// line.
func TestTextRefusesCollectivesNoWorkloadIssues(t *testing.T) {
	for _, line := range []string{"barrier", "reduce 0 8", "allgather 8", "alltoall 8", "gather 0 8", "scatter 1 8"} {
		mnemonic := strings.Fields(line)[0]
		t.Run(mnemonic, func(t *testing.T) {
			in := "ranks 2\nrank 0\ncalc 5\n" + line + "\nrank 1\n" + line + "\n"
			tr, err := ReadText(strings.NewReader(in))
			if err == nil {
				t.Fatalf("accepted %q as %+v", in, tr)
			}
			if want := `line 4: unknown op "` + mnemonic + `"`; !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not say %q", err, want)
			}
		})
	}
}

// TestTextRefusesWildcardsAndSelfReceives: a receive names one rank
// other than its own and a tag >= 0, as a send does, so a wildcard
// line from an older trace file (-1 for MPI_ANY_SOURCE or MPI_ANY_TAG)
// is refused, naming the rank and op, instead of being read as an
// exact match.
func TestTextRefusesWildcardsAndSelfReceives(t *testing.T) {
	cases := []struct{ line, want string }{
		{"recv -1 8 0", "rank 1 op 1 (recv): peer -1 out of range [0,2)"},
		{"recv 0 8 -1", "rank 1 op 1 (recv): negative tag -1"},
		{"recv 1 8 0", "rank 1 op 1 (recv): peer is the rank itself"},
		{"irecv -1 8 0 0\nwait 0", "rank 1 op 1 (irecv): peer -1 out of range [0,2)"},
		{"irecv 0 8 -1 0\nwait 0", "rank 1 op 1 (irecv): negative tag -1"},
	}
	for _, tc := range cases {
		t.Run(tc.line, func(t *testing.T) {
			in := "ranks 2\nrank 0\nsend 1 8 0\nrank 1\ncalc 5\n" + tc.line + "\n"
			tr, err := ReadText(strings.NewReader(in))
			if err == nil {
				t.Fatalf("accepted %q as %+v", in, tr)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not say %q", err, tc.want)
			}
		})
	}
}

// TestTextRanksLineAllocatesNothingUpFront: ranks are allocated as
// their headers are read, so a short file cannot make the reader
// allocate for the count its ranks line declares.
func TestTextRanksLineAllocatesNothingUpFront(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadText(strings.NewReader("ranks 4194304\n"))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a 14-byte ranks line allocated %.1f MiB, want under 1 MiB", float64(got)/(1<<20))
	}
	if err == nil {
		t.Fatal("a ranks line with no rank headers was accepted")
	}
}

func TestWriteTextRefusesNameWithWhiteSpace(t *testing.T) {
	tr := &Trace{Name: "two words", Ops: [][]Op{nil}}
	if err := WriteText(&bytes.Buffer{}, tr); err == nil {
		t.Fatal("wrote a name that reads back as two")
	}
}
