package loggopsim

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/netmodel"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// A Builder takes every rank once, in order, and hands the program
// over once; nothing can reach the program after that.
func TestBuilderOrderAndCompleteness(t *testing.T) {
	cfg := Config{Net: netmodel.CrayXC40()}
	ops := []trace.Op{trace.Calc(10)}
	if _, err := NewBuilder(0, cfg); err != trace.ErrEmptyTrace {
		t.Fatalf("NewBuilder(0): %v, want ErrEmptyTrace", err)
	}
	for _, order := range [][]int{{1}, {0, 0}, {0, 2}, {0, 1, 2}, {-1}} {
		b, err := NewBuilder(2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range order {
			err = b.AddRank(r, ops)
			if i < len(order)-1 && err != nil {
				t.Fatalf("order %v: rank %d rejected: %v", order, r, err)
			}
		}
		if err == nil {
			t.Errorf("order %v accepted", order)
		}
	}
	b, _ := NewBuilder(2, cfg)
	if err := b.AddRank(0, ops); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Program(); err == nil {
		t.Fatal("program handed over with a rank missing")
	}
	if err := b.AddRank(1, ops); err != nil {
		t.Fatal(err)
	}
	p, err := b.Program()
	if err != nil || p.Ranks() != 2 {
		t.Fatalf("Program: %v, %v", p, err)
	}
	if _, err := b.Program(); err == nil {
		t.Fatal("program handed over twice")
	}
	if err := b.AddRank(2, ops); err == nil {
		t.Fatal("rank added to a finished builder")
	}
}

// requirePresized runs the program once on a new run state and
// requires that nothing the program counted had to grow: msgs is
// filled to exactly its capacity, and every rank's slot table and
// posted list still sit in their slab windows.
func requirePresized(t *testing.T, label string, p *Program) {
	t.Helper()
	s := p.NewSimulator()
	if _, err := s.Run(nil); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(s.msgs) != p.rdvSends || cap(s.msgs) != p.rdvSends {
		t.Fatalf("%s: msgs len %d cap %d, program counted %d rendezvous sends", label, len(s.msgs), cap(s.msgs), p.rdvSends)
	}
	var slab, postedSlab uintptr
	for r := range s.ranks {
		st := &s.ranks[r]
		want := int(p.slots[r])
		if want == 0 {
			if cap(st.slots) != 0 {
				t.Fatalf("%s: rank %d grew a slot table the program did not count", label, r)
			}
			continue
		}
		if len(st.slots) > want || cap(st.slots) != want || cap(st.posted) != want {
			t.Fatalf("%s: rank %d used %d slots (cap %d, posted cap %d), program counted %d",
				label, r, len(st.slots), cap(st.slots), cap(st.posted), want)
		}
		// Windows are laid out in rank order, so a table that moved to
		// its own allocation breaks the ascending addresses.
		at, pat := uintptr(unsafe.Pointer(unsafe.SliceData(st.slots))), uintptr(unsafe.Pointer(unsafe.SliceData(st.posted)))
		if at <= slab || pat <= postedSlab {
			t.Fatalf("%s: rank %d left its slab window", label, r)
		}
		slab, postedSlab = at, pat
	}
}

func TestFirstRunGrowsNothingTheProgramCounted(t *testing.T) {
	cfg := Config{Net: netmodel.CrayXC40(), Profile: true}
	for _, name := range tracegen.Names() {
		ranks := tracegen.PreferredRanks(name, 27)
		p, err := Compile(expandWorkload(t, name, ranks, 3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if name == "cth" && p.rdvSends == 0 {
			t.Fatal("cth's 96 KiB halos compiled to no rendezvous send")
		}
		requirePresized(t, name, p)
	}
	// Blocking sends and receives mixed with nonblocking ones, on both
	// sides of a lowered eager limit.
	cfg.Net.S = 4096
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		p, err := Compile(randomMatchedTrace(rnd, 2+rnd.Intn(6), 40), cfg)
		if err != nil {
			t.Fatal(err)
		}
		requirePresized(t, "random", p)
	}
}
