package loggopsim

import (
	"math/rand"
	"slices"
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

// requirePresized runs the program twice on a new run state and
// requires that nothing the program counted had to grow: msgs keeps the
// capacity the program counted and holds the first run's handshakes at
// their peak (startRdv appends only when every record is in flight, so
// its length is that peak), the second run grows nothing, and every
// rank's slot table and posted list still sit in their slab windows. It
// returns the peak and msgs' capacity.
func requirePresized(t *testing.T, label string, p *Program) (inFlight, capacity int) {
	t.Helper()
	s := p.NewSimulator()
	if _, err := s.Run(nil); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	inFlight, capacity = len(s.msgs), cap(s.msgs)
	if inFlight > p.handshakes || capacity != p.handshakes {
		t.Fatalf("%s: %d handshakes in flight at the peak, msgs cap %d, program counted %d", label, inFlight, capacity, p.handshakes)
	}
	size, msgs := s.SizeBytes(), unsafe.SliceData(s.msgs)
	if _, err := s.Run(nil); err != nil {
		t.Fatalf("%s: second run: %v", label, err)
	}
	if s.SizeBytes() != size || unsafe.SliceData(s.msgs) != msgs || len(s.msgs) != inFlight {
		t.Fatalf("%s: second run grew the run state: %d -> %d bytes, %d -> %d handshakes in flight",
			label, size, s.SizeBytes(), inFlight, len(s.msgs))
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
	return inFlight, capacity
}

// TestFirstRunGrowsNothingTheProgramCounted also holds msgs to what a
// run has in flight: at most twice its peak. On the nine workloads the
// count is the peak exactly — every rank has all its halo sends out at
// once. On random traces a rank's count is an upper bound that can be
// far off for one trace (12 for a peak of 5: sends that landed long
// before the WaitAll that releases them), so there the rule holds over
// the twenty traces together. On a ring every rank runs rank 0's
// stream and exchange segment through a peer table of its own, so its
// counts come from ops another rank compiled: they must be exact too.
func TestFirstRunGrowsNothingTheProgramCounted(t *testing.T) {
	cfg := Config{Net: netmodel.CrayXC40(), Profile: true}
	for _, name := range tracegen.Names() {
		ranks := tracegen.PreferredRanks(name, 27)
		p, err := Compile(expandWorkload(t, name, ranks, 3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if name == "cth" && p.handshakes == 0 {
			t.Fatal("cth's 96 KiB halos compiled to no rendezvous send")
		}
		if inFlight, capacity := requirePresized(t, name, p); capacity > 2*inFlight {
			t.Errorf("%s: msgs cap %d, over twice the %d handshakes in flight at the peak", name, capacity, inFlight)
		}
	}
	// Blocking sends and receives mixed with nonblocking ones, on both
	// sides of a lowered eager limit.
	cfg.Net.S = 4096
	rnd := rand.New(rand.NewSource(7))
	inFlight, capacity := 0, 0
	for i := 0; i < 20; i++ {
		p, err := Compile(randomMatchedTrace(rnd, 2+rnd.Intn(6), 40), cfg)
		if err != nil {
			t.Fatal(err)
		}
		n, c := requirePresized(t, "random", p)
		inFlight, capacity = inFlight+n, capacity+c
	}
	t.Logf("random: msgs cap %d for %d handshakes in flight at the peaks", capacity, inFlight)
	if capacity > 2*inFlight {
		t.Errorf("random: msgs cap %d in all, over twice the %d handshakes in flight at the peaks", capacity, inFlight)
	}

	const ranks = 6
	ring := &trace.Trace{Name: "ring", Ops: make([][]trace.Op, ranks)}
	for r := range ring.Ops {
		left, right := int32((r+ranks-1)%ranks), int32((r+1)%ranks)
		for i := 0; i < 3; i++ {
			ring.Ops[r] = append(ring.Ops[r], trace.Calc(int64(100+r)), trace.Irecv(left, 70000, 0, 0), trace.Irecv(right, 70000, 1, 1),
				trace.Isend(right, 70000, 0, 2), trace.Isend(left, 70000, 1, 3), trace.WaitAll())
		}
	}
	p, err := Compile(ring, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.streams) != 1 || len(p.segs) != 1 || slices.Equal(p.peers[p.rank[ranks-1].peer:p.rank[ranks].peer], p.peers[:p.rank[1].peer]) {
		t.Fatalf("ring: %d streams, %d segments, last rank's peers %v, rank 0's %v: want one of each and other peers",
			len(p.streams), len(p.segs), p.peers[p.rank[ranks-1].peer:], p.peers[:p.rank[1].peer])
	}
	if p.handshakes != 2*ranks || slices.ContainsFunc(p.slots, func(n int32) bool { return n != 4 }) {
		t.Fatalf("ring: %d handshakes and slots %v, want two rendezvous sends and four requests a rank", p.handshakes, p.slots)
	}
	if inFlight, capacity := requirePresized(t, "ring", p); inFlight != capacity {
		t.Errorf("ring: msgs cap %d, %d handshakes in flight at the peak", capacity, inFlight)
	}
}
