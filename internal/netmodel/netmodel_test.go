package netmodel

import (
	"testing"
	"testing/quick"
)

func TestPresetsValid(t *testing.T) {
	if err := CrayXC40().Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
}

func TestValidateRejectsNegative(t *testing.T) {
	bad := []Params{
		{L: -1},
		{O: -1},
		{Gap: -1},
		{GPerByte: -0.1},
		{OPerByte: -0.1},
		{S: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestZeroAndOneByteMessages(t *testing.T) {
	p := CrayXC40()
	for _, size := range []int64{0, 1} {
		if got := p.SendCPU(size); got != p.O {
			t.Fatalf("SendCPU(%d) = %d, want o=%d", size, got, p.O)
		}
		if got := p.Transit(size); got != p.L {
			t.Fatalf("Transit(%d) = %d, want L=%d", size, got, p.L)
		}
		if got := p.NICGap(size); got != p.Gap {
			t.Fatalf("NICGap(%d) = %d, want g=%d", size, got, p.Gap)
		}
	}
}

func TestByteCostsScale(t *testing.T) {
	p := CrayXC40()
	small := p.Transit(1024)
	big := p.Transit(1024 * 1024)
	if big <= small {
		t.Fatalf("transit not increasing with size: %d vs %d", small, big)
	}
	// (s-1)G dominates for 1 MiB at 0.2 ns/B: ~200 us.
	wantApprox := p.L + int64(0.2*float64(1024*1024-1))
	if big != wantApprox {
		t.Fatalf("Transit(1MiB) = %d, want %d", big, wantApprox)
	}
}

func TestEagerThreshold(t *testing.T) {
	p := CrayXC40()
	if !p.Eager(p.S) {
		t.Fatal("size == S should be eager")
	}
	if p.Eager(p.S + 1) {
		t.Fatal("size == S+1 should be rendezvous")
	}
}

// Property: all cost functions are monotone non-decreasing in size and
// non-negative for valid parameter sets.
func TestQuickMonotone(t *testing.T) {
	p := CrayXC40()
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return p.SendCPU(x) <= p.SendCPU(y) &&
			p.RecvCPU(x) <= p.RecvCPU(y) &&
			p.NICGap(x) <= p.NICGap(y) &&
			p.Transit(x) <= p.Transit(y) &&
			p.SendCPU(x) >= 0 && p.Transit(x) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
