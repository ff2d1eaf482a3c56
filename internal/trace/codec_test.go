package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomTrace builds a structurally valid random trace for round-trip
// property tests: every rank runs the same collective sequence, with
// random point-to-point and compute ops between its collectives.
func randomTrace(r *rand.Rand, maxRanks, maxOps int) *Trace {
	n := 1 + r.Intn(maxRanks)
	t := &Trace{Name: "rand", Ops: make([][]Op, n)}
	var colls []Op
	for i := r.Intn(maxOps/4 + 1); i > 0; i-- {
		if r.Intn(2) == 0 {
			colls = append(colls, Bcast(int32(r.Intn(n)), int64(r.Intn(4096))))
		} else {
			colls = append(colls, Allreduce(int64(r.Intn(4096))))
		}
	}
	for rank := 0; rank < n; rank++ {
		nOps := r.Intn(maxOps)
		var ops []Op
		req := int32(0)
		var outstanding []int32
		next := 0 // index of the next collective this rank joins
		for i := 0; i < nOps; i++ {
			switch r.Intn(7) {
			case 0:
				ops = append(ops, Calc(int64(r.Intn(1e6))))
			case 1:
				if n > 1 {
					peer := int32(r.Intn(n))
					if peer == int32(rank) {
						peer = (peer + 1) % int32(n)
					}
					ops = append(ops, Send(peer, int64(r.Intn(1<<20)), int32(r.Intn(100))))
				}
			case 2:
				if n > 1 {
					peer := int32(r.Intn(n))
					if peer == int32(rank) {
						peer = (peer + 1) % int32(n)
					}
					ops = append(ops, Recv(peer, int64(r.Intn(1<<20)), int32(r.Intn(100))))
				}
			case 3:
				if n > 1 {
					peer := int32(r.Intn(n))
					if peer == int32(rank) {
						peer = (peer + 1) % int32(n)
					}
					ops = append(ops, Isend(peer, 64, 1, req))
					outstanding = append(outstanding, req)
					req++
				}
			case 4:
				if len(outstanding) > 0 {
					ops = append(ops, Wait(outstanding[0]))
					outstanding = outstanding[1:]
				}
			case 5:
				ops = append(ops, WaitAll())
				outstanding = nil
			case 6:
				if next < len(colls) {
					ops = append(ops, colls[next])
					next++
				}
			}
		}
		if len(outstanding) > 0 {
			ops = append(ops, WaitAll())
		}
		t.Ops[rank] = append(ops, colls[next:]...)
	}
	return t
}

func TestTextRoundTrip(t *testing.T) {
	tr := &Trace{
		Name: "mix",
		Ops: [][]Op{
			{Calc(10), Isend(1, 256, 3, 0), Irecv(1, 256, 4, 1), Wait(0), Wait(1),
				Allreduce(16), Bcast(0, 8), Bcast(1, 8), WaitAll()},
			{Recv(0, 256, 3), Send(0, 256, 4),
				Allreduce(16), Bcast(0, 8), Bcast(1, 8)},
		},
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("text round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestTextComments(t *testing.T) {
	in := `# a comment
trace demo
ranks 2

rank 0
  calc 100
  send 1 8 0
rank 1
  recv 0 8 0
`
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "demo" || tr.NumRanks() != 2 || len(tr.Ops[0]) != 2 {
		t.Fatalf("parsed trace wrong: %+v", tr)
	}
}

func TestTextErrors(t *testing.T) {
	cases := []string{
		"calc 5",                       // op before any header
		"ranks 2\ncalc 5",              // op before rank header
		"ranks 2\nrank 5\ncalc 1",      // rank out of range
		"ranks 2\nrank 0\nbogus 1",     // unknown op
		"ranks 2\nrank 0\nsend 1",      // missing args
		"ranks 0",                      // bad rank count
		"ranks 2\nrank 0\ncalc xyz",    // bad integer
		"rank 0\ncalc 1",               // rank before ranks
		"ranks 2\nrank 0\nsend 1 8 ab", // bad tag
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

func TestTextEmpty(t *testing.T) {
	if _, err := ReadText(strings.NewReader("")); err != ErrEmptyTrace {
		t.Fatalf("empty input: got %v, want ErrEmptyTrace", err)
	}
}

func TestTextRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		tr := randomTrace(r, 8, 40)
		if err := tr.Validate(); err != nil {
			t.Fatalf("iteration %d: randomTrace built an invalid trace: %v", i, err)
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("iteration %d: round trip mismatch", i)
		}
	}
}

func BenchmarkWriteText(b *testing.B) {
	tr := randomTrace(rand.New(rand.NewSource(1)), 16, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteText(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadText(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteText(&buf, randomTrace(rand.New(rand.NewSource(1)), 16, 200)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadText(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
