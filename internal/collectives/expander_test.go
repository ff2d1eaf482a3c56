package collectives

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// The per-rank expander rejects what Expand always rejected, in the
// words Expand always used (the strings are the ones the whole-trace
// Expand returned before it became a loop over the expander), and the
// offending rank is past rank 0 in every case: the checks must not
// depend on having seen the whole trace.
func TestExpanderRejections(t *testing.T) {
	cases := []struct {
		name string
		ops  [][]trace.Op
		want string
	}{
		{
			"reserved tag",
			[][]trace.Op{{trace.Recv(1, 8, 0)}, {trace.Calc(5), trace.Send(0, 8, TagBase)}},
			"collectives: rank 1 op 1 uses reserved tag 268435456",
		},
		{
			"reserved request id",
			[][]trace.Op{{trace.Recv(1, 8, 0)}, {trace.Isend(0, 8, 0, ReqBase), trace.Wait(ReqBase)}},
			"collectives: rank 1 op 0 uses reserved request id 1073741824",
		},
		{
			"collective count",
			[][]trace.Op{{trace.Allreduce(8)}, {trace.Allreduce(8)}, {trace.Allreduce(8), trace.Allreduce(8)}},
			"collectives: rank 2 has 2 collectives, rank 0 has 1",
		},
		{
			"collective kind",
			[][]trace.Op{{trace.Bcast(0, 8)}, {trace.Allreduce(8)}},
			"collectives: rank 1 collective 0 (allreduce) disagrees with rank 0 (bcast)",
		},
		{
			"collective size",
			[][]trace.Op{{trace.Allreduce(8)}, {trace.Allreduce(16)}},
			"collectives: rank 1 collective 0 (allreduce) disagrees with rank 0 (allreduce)",
		},
		{
			"collective root",
			[][]trace.Op{{trace.Bcast(0, 8)}, {trace.Bcast(0, 8)}, {trace.Bcast(1, 8)}},
			"collectives: rank 2 collective 0 (bcast) disagrees with rank 0 (bcast)",
		},
	}
	for _, c := range cases {
		_, err := Expand(&trace.Trace{Ops: c.ops}, Config{})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Expand: %v, want %q", c.name, err, c.want)
		}
		x, err := NewExpander(len(c.ops), Config{})
		if err != nil {
			t.Fatal(err)
		}
		last := len(c.ops) - 1
		for r, ops := range c.ops {
			_, err = x.AppendRank(nil, r, ops)
			if r < last && err != nil {
				t.Fatalf("%s: rank %d rejected early: %v", c.name, r, err)
			}
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: AppendRank: %v, want %q", c.name, err, c.want)
		}
	}
}

// Ranks go in from 0, one at a time, no further than the count the
// expander was made for.
func TestExpanderRefusesRanksOutOfOrder(t *testing.T) {
	ops := []trace.Op{trace.Allreduce(8)}
	feed := func(ranks int, order ...int) error {
		t.Helper()
		x, err := NewExpander(ranks, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range order {
			_, err = x.AppendRank(nil, r, ops)
			if i < len(order)-1 && err != nil {
				t.Fatalf("order %v: rank %d rejected: %v", order, r, err)
			}
		}
		return err
	}
	for _, order := range [][]int{{1}, {0, 2}, {0, 0}, {0, 1, 0}, {0, 1, 2, 3}, {-1}} {
		if err := feed(3, order...); err == nil {
			t.Errorf("order %v accepted", order)
		}
	}
	if err := feed(3, 0, 1, 2); err != nil {
		t.Errorf("in order: %v", err)
	}
	if _, err := NewExpander(0, Config{}); err != trace.ErrEmptyTrace {
		t.Errorf("NewExpander(0): %v, want ErrEmptyTrace", err)
	}
}

// AppendRank extends dst without touching what it already holds or the
// input ops, and Expand's ranks are exactly as long as what it appended.
func TestExpanderAppendsInPlace(t *testing.T) {
	in := [][]trace.Op{
		{trace.Calc(1), trace.Allreduce(64), trace.Send(1, 8, 3)},
		{trace.Calc(2), trace.Allreduce(64), trace.Recv(0, 8, 3)},
	}
	orig := [][]trace.Op{append([]trace.Op(nil), in[0]...), append([]trace.Op(nil), in[1]...)}
	whole, err := Expand(&trace.Trace{Ops: in}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := NewExpander(2, Config{})
	prefix := []trace.Op{trace.Calc(99)}
	buf := make([]trace.Op, 0, 64)
	for r := range in {
		buf = append(buf[:0], prefix...)
		if buf, err = x.AppendRank(buf, r, in[r]); err != nil {
			t.Fatal(err)
		}
		if buf[0] != prefix[0] || !reflect.DeepEqual(buf[1:], whole.Ops[r]) {
			t.Fatalf("rank %d: appended %v, Expand gave %v", r, buf, whole.Ops[r])
		}
		if cap(whole.Ops[r]) != len(whole.Ops[r]) {
			t.Fatalf("rank %d: Expand kept %d slots for %d ops", r, cap(whole.Ops[r]), len(whole.Ops[r]))
		}
	}
	if !reflect.DeepEqual(in, orig) {
		t.Fatal("input ops modified")
	}
}
