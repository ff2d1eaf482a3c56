package loggopsim

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/collectives"
	"repro/internal/netmodel"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// flatOp is a compiled op the way a program compiled from a flat trace
// holds it, but for a send's cost, which is here by value.
type flatOp struct {
	kind           uint8
	peer, tag, req int32
	arg            int64
	cost           cost
}

// flatOps flattens rank r's stream: every table index replaced by the
// rank's entry — a calc's duration, a message's peer — and every
// segment reference by the segment's ops with the reference's bases
// added — the tag base to the ops that carry a tag, the request base to
// the ops that carry a request id, as collectives' splice adds them
// when it flattens a trace.
func (p *Program) flatOps(r int) []flatOp {
	var out []flatOp
	rc := &p.rank[r]
	emit := func(op cop, tag, req int32) {
		f := flatOp{kind: op.kind, peer: op.peer, tag: op.tag, req: op.req, arg: op.arg}
		switch op.kind {
		case cCalc:
			f.arg = p.durs[rc.dur+int32(op.arg)]
		case cEagerSend, cEagerIsend, cRdvSend, cRdvIsend:
			f.arg, f.cost = 0, p.costs[op.arg]
			f.peer = p.peers[rc.peer+op.peer]
			f.tag += tag
		case cRecv, cIrecv:
			f.peer = p.peers[rc.peer+op.peer]
			f.tag += tag
		}
		switch op.kind {
		case cEagerIsend, cRdvIsend, cIrecv, cWait:
			f.req += req
		}
		out = append(out, f)
	}
	for _, op := range p.stream(int32(r)) {
		if op.kind != cSeg {
			emit(op, 0, 0)
			continue
		}
		for _, in := range p.segs[p.seg(int32(r), op.arg)] {
			emit(in, op.tag, op.req)
		}
	}
	return out
}

// storedOps counts the ops of the program's streams and segments.
func (p *Program) storedOps() int {
	n := 0
	for _, ops := range slices.Concat(p.streams, p.segs) {
		n += len(ops)
	}
	return n
}

// TestStreamedLoweringMatchesStaged: a program lowered a rank at a time
// from the expander's reports — streams, segments, cost table — is,
// flattened, the program Compile builds from collectives.Expand's flat
// trace: op for op, cost for cost, rendezvous and slot counts included.
// core's test of the same name pins NewExperiment to this lowering.
// Sharing exchanges only shrinks a program's ops: it never stores more
// than the same lowering with every exchange inline, and fewer on every
// workload at 128 ranks. Ranks share the inline lowering's streams as
// well, so the program may outgrow it by no more than the segment-table
// entries the exchanges add, 4 bytes each. Rank counts cover the two-rank exchange, an odd
// count, uneven grid factors, and power-of-two and cube sizes. Part of
// engine-smoke.
func TestStreamedLoweringMatchesStaged(t *testing.T) {
	cfg := Config{Net: netmodel.CrayXC40(), Profile: true}
	algos := []collectives.AllreduceAlgo{
		collectives.AllreduceAuto, collectives.AllreduceRecursiveDoubling,
		collectives.AllreduceRabenseifner, collectives.AllreduceRing,
	}
	segments := 0
	at128 := map[string]bool{}
	for _, wl := range tracegen.Names() {
		for _, nodes := range []int{2, 3, 24, 64, 128} {
			tr, err := tracegen.Generate(wl, tracegen.PreferredRanks(wl, nodes), 3, 5)
			if err != nil {
				continue // no such decomposition; core's test compares the refusals
			}
			for _, algo := range algos {
				coll := collectives.Config{Allreduce: algo}
				flat, err := collectives.Expand(tr, coll)
				if err != nil {
					t.Fatal(err)
				}
				staged, err := Compile(flat, cfg)
				if err != nil {
					t.Fatal(err)
				}
				streamed, err := streamedProgram(tr, coll, cfg)
				if err != nil {
					t.Fatal(err)
				}
				inline, err := inlineProgram(tr, coll, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ops, was := streamed.storedOps(), inline.storedOps()
				if ops > was || nodes == 128 && ops == was {
					t.Fatalf("%s/%d/%s: sharing exchanges took the program from %d to %d ops", wl, nodes, algo, was, ops)
				}
				entries := int64(len(streamed.segTab) - len(inline.segTab))
				if size, was := streamed.SizeBytes(), inline.SizeBytes(); size > was+4*entries {
					t.Fatalf("%s/%d/%s: sharing exchanges took the program from %d to %d bytes, %d segment-table entries added", wl, nodes, algo, was, size, entries)
				}
				at128[wl] = at128[wl] || nodes == 128
				segments += len(streamed.segTab)
				for r := range tr.Ops {
					if got, want := streamed.flatOps(r), staged.flatOps(r); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%d/%s: rank %d flattens to %d ops, staged has %d, or they differ", wl, nodes, algo, r, len(got), len(want))
					}
				}
				if streamed.handshakes != staged.handshakes || !reflect.DeepEqual(streamed.slots, staged.slots) {
					t.Fatalf("%s/%d/%s: streamed counts %d handshakes and slots %v, staged %d and %v",
						wl, nodes, algo, streamed.handshakes, streamed.slots, staged.handshakes, staged.slots)
				}
			}
		}
	}
	if segments == 0 {
		t.Fatal("no workload lowered to a segment: the comparison was flat against flat")
	}
	for _, wl := range tracegen.Names() {
		if !at128[wl] {
			t.Errorf("%s: no program at 128 ranks to shrink", wl)
		}
	}
}

// TestProgramBytesPerOp: an op is 24 bytes, and a program lowered the
// way NewExperiment lowers it costs, per op of its expanded trace, at
// most 1 byte on every workload at 20 iterations — collective
// schedules and repeated exchanges are held once per rank, not once per
// instance, and ranks share their streams and segments, so what is left
// is mostly 8 bytes per calc (2.35 to 4.75 bytes with every rank's ops
// its own, 7.9 to 24.1 with every exchange inline as well).
func TestProgramBytesPerOp(t *testing.T) {
	if size := unsafe.Sizeof(cop{}); size > 24 {
		t.Fatalf("a compiled op is %d bytes, want at most 24", size)
	}
	cfg := Config{Net: netmodel.CrayXC40(), Profile: true}
	for _, wl := range tracegen.Names() {
		tr, err := tracegen.Generate(wl, tracegen.PreferredRanks(wl, 128), 20, 1)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := collectives.Expand(tr, collectives.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := streamedProgram(tr, collectives.Config{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		perOp := float64(p.SizeBytes()) / float64(flat.NumOps())
		t.Logf("%-14s %4d ranks %8d expanded ops %6d segments %2d costs %6.2f B/op", wl, p.Ranks(), flat.NumOps(), len(p.segs), len(p.costs), perOp)
		if perOp > 1 {
			t.Errorf("%s: %.2f bytes per expanded op, want at most 1", wl, perOp)
		}
	}
}

// TestSizeBytesCoversWhatBuildingKeeps: SizeBytes may fall short of the
// heap a built program holds on to by no more than allocation size-class
// rounding; simcache's bound rests on it.
func TestSizeBytesCoversWhatBuildingKeeps(t *testing.T) {
	cfg := Config{Net: netmodel.CrayXC40(), Profile: true}
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for _, wl := range []string{"minife", "cth", "lammps-lj"} {
		tr, err := tracegen.Generate(wl, tracegen.PreferredRanks(wl, 128), 20, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := streamedProgram(tr, collectives.Config{}, cfg); err != nil { // fills the schedule memo
			t.Fatal(err)
		}
		before := heap()
		p, err := streamedProgram(tr, collectives.Config{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		kept := heap() - before
		if size := p.SizeBytes(); size < kept*85/100 {
			t.Errorf("%s: SizeBytes %d, the heap grew by %d: under-reported by more than 15%%", wl, size, kept)
		}
		runtime.KeepAlive(p)
	}
}

// TestDeadlockInsideSegmentNamesExpandedOp: a rank that deadlocks in
// the middle of a collective is reported at the index of the op in its
// expanded trace, not at an offset into a segment nobody can look up.
// Rank 1 waits for a message nobody sends, so rank 0 hangs in the
// allreduce's first receive.
func TestDeadlockInsideSegmentNamesExpandedOp(t *testing.T) {
	tr := &trace.Trace{Name: "stray-recv", Ops: [][]trace.Op{
		{trace.Calc(100), trace.Calc(100), trace.Allreduce(8), trace.Calc(100), trace.Allreduce(8)},
		{trace.Calc(100), trace.Recv(0, 8, 7), trace.Allreduce(8), trace.Calc(100), trace.Allreduce(8)},
	}}
	cfg := Config{Net: netmodel.CrayXC40()}
	flat, err := collectives.Expand(tr, collectives.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, flatErr := Simulate(flat, cfg)
	p, err := streamedProgram(tr, collectives.Config{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.segs) != 1 || len(p.segTab) != 2 {
		t.Fatalf("%d segments in %d table entries, want the allreduce once, in both ranks' tables", len(p.segs), len(p.segTab))
	}
	res, err := p.NewSimulator().Run(nil)
	if err == nil || !res.Deadlocked || flatErr == nil || err.Error() != flatErr.Error() {
		t.Fatalf("segmented run: %v; flat run: %v", err, flatErr)
	}
	// Rank 0 is in the Wait of the allreduce's Irecv/Send/Wait round:
	// expanded ops 0 and 1 are the calcs, 2 to 4 the round.
	if want := "first: rank 0 at op 4)"; !strings.HasSuffix(err.Error(), want) || flat.Ops[0][4].Kind != trace.OpWait {
		t.Fatalf("deadlock reported as %q, want it to end %q (flat op 4 is %s)", err, want, flat.Ops[0][4].Kind)
	}
}

// TestDeadlockInsideSharedExchangeNamesTraceOp: a rank blocked in the
// WaitAll of the third repetition of a shared exchange — a reference to
// a segment, not ops of its stream — is reported at the index of that
// WaitAll in its trace. Rank 1 skips its part of the third exchange, so
// rank 0's receive never completes. Part of engine-smoke.
func TestDeadlockInsideSharedExchangeNamesTraceOp(t *testing.T) {
	exchange := []trace.Op{trace.Calc(100), trace.Irecv(1, 8, 0, 0), trace.Isend(1, 8, 0, 1), trace.WaitAll()}
	var rank0, rank1 []trace.Op
	for i := 0; i < 3; i++ {
		rank0 = append(rank0, exchange...)
	}
	for i := 0; i < 2; i++ {
		rank1 = append(rank1, trace.Calc(100), trace.Irecv(0, 8, 0, 0), trace.Isend(0, 8, 0, 1), trace.WaitAll())
	}
	rank1 = append(rank1, trace.Calc(100), trace.Irecv(0, 8, 0, 0), trace.WaitAll())
	tr := &trace.Trace{Name: "skipped-exchange", Ops: [][]trace.Op{rank0, rank1}}
	p, err := Compile(tr, Config{Net: netmodel.CrayXC40()})
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	stream := p.stream(0)
	for _, op := range stream {
		if op.kind == cSeg {
			refs++
		}
	}
	if refs != 3 || len(stream) != 6 {
		t.Fatalf("rank 0 compiled to %d ops, %d of them references: want three calcs and three references", len(stream), refs)
	}
	want := -1
	for i, op := range rank0 {
		if op.Kind == trace.OpWaitAll {
			want = i // the third and last
		}
	}
	_, err = p.NewSimulator().Run(nil)
	if err == nil || !strings.HasSuffix(err.Error(), fmt.Sprintf("first: rank 0 at op %d)", want)) {
		t.Fatalf("deadlock reported as %v, want it at rank 0's op %d, the third WaitAll", err, want)
	}
}

// TestDeadlockInSegmentOfAnotherRankNamesFlatOp: a rank blocked inside
// a segment that rank 0 compiled and it only references — through its
// own segment table, naming its own peers — is reported at the index of
// the blocked op in its own flat trace. Four ranks in a ring run a ring
// allreduce, which meets the left neighbour first and the right one
// second on every rank, and then repeat one exchange, receive from the
// left, send to the right; rank 2 skips its send of the third exchange, so rank 3
// hangs in that exchange's WaitAll. Ranks 0 and 1 first repeat a longer
// exchange of their own, so the ring is segment 1 in rank 3's table and
// segment 2 in rank 0's and the program's. Part of engine-smoke.
func TestDeadlockInSegmentOfAnotherRankNamesFlatOp(t *testing.T) {
	const ranks = 4
	tr := &trace.Trace{Name: "ring", Ops: make([][]trace.Op, ranks)}
	for r := range tr.Ops {
		left, right := int32((r+ranks-1)%ranks), int32((r+1)%ranks)
		tr.Ops[r] = []trace.Op{trace.Allreduce(8)}
		if other := int32(1 - r); r < 2 {
			for i := 0; i < 2; i++ {
				tr.Ops[r] = append(tr.Ops[r], trace.Calc(100), trace.Irecv(other, 8, 5, 0), trace.Irecv(other, 8, 6, 1),
					trace.Isend(other, 8, 5, 2), trace.Isend(other, 8, 6, 3), trace.WaitAll())
			}
		}
		for i := 0; i < 3; i++ {
			tr.Ops[r] = append(tr.Ops[r], trace.Calc(100), trace.Irecv(left, 8, 0, 0))
			if r != 2 || i < 2 {
				tr.Ops[r] = append(tr.Ops[r], trace.Isend(right, 8, 0, 1))
			}
			tr.Ops[r] = append(tr.Ops[r], trace.WaitAll())
		}
	}
	cfg, ring := Config{Net: netmodel.CrayXC40()}, collectives.Config{Allreduce: collectives.AllreduceRing}
	flat, err := collectives.Expand(tr, ring)
	if err != nil {
		t.Fatal(err)
	}
	_, flatErr := Simulate(flat, cfg)
	p, err := streamedProgram(tr, ring, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 3's last op is a reference to its segment 1, rank 0's segment 2.
	stream := p.stream(3)
	if last := stream[len(stream)-1]; last.kind != cSeg || last.arg != 1 || p.seg(3, 1) != p.seg(0, 2) {
		t.Fatalf("rank 3 ends in op kind %d, arg %d, not a reference to the ring exchange rank 0 compiled", last.kind, last.arg)
	}
	if slices.Equal(p.peers[p.rank[3].peer:p.rank[4].peer], p.peers[:p.rank[1].peer]) {
		t.Fatal("rank 3 has rank 0's peers")
	}
	want := -1
	for i, op := range flat.Ops[3] {
		if op.Kind == trace.OpWaitAll {
			want = i // the third and last
		}
	}
	res, err := p.NewSimulator().Run(nil)
	if err == nil || !res.Deadlocked || flatErr == nil || err.Error() != flatErr.Error() {
		t.Fatalf("segmented run: %v; flat run: %v", err, flatErr)
	}
	if !strings.HasSuffix(err.Error(), fmt.Sprintf("first: rank 3 at op %d)", want)) {
		t.Fatalf("deadlock reported as %v, want it at rank 3's flat op %d, the third WaitAll", err, want)
	}
}

// TestExchangeReleasingEarlierSendStaysInline: an exchange whose Wait
// releases a rendezvous send posted before it has one rendezvous send
// fewer outstanding on the stream than in a segment of its own when it
// posts its own, so it stays inline and the handshake count stays what
// the inline lowering counts; the same exchange waiting on its own
// receive instead is shared.
func TestExchangeReleasingEarlierSendStaysInline(t *testing.T) {
	cfg := Config{Net: netmodel.CrayXC40()}
	for _, c := range []struct {
		waitOn int32
		shared bool
	}{{0, false}, {1, true}} {
		var r0, r1 []trace.Op
		for i := 0; i < 3; i++ {
			r0 = append(r0, trace.Isend(1, 70000, 0, 0), trace.Calc(10),
				trace.Irecv(1, 8, 1, 1), trace.Wait(c.waitOn), trace.Isend(1, 70000, 2, 2), trace.WaitAll())
			r1 = append(r1, trace.Recv(0, 70000, 0), trace.Send(0, 8, 1), trace.Recv(0, 70000, 2))
		}
		tr := &trace.Trace{Name: "release", Ops: [][]trace.Op{r0, r1}}
		p, err := Compile(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		inline, err := inlineProgram(tr, collectives.Config{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p.handshakes != inline.handshakes || !reflect.DeepEqual(p.slots, inline.slots) {
			t.Fatalf("Wait(%d): %d handshakes and slots %v, inline %d and %v", c.waitOn, p.handshakes, p.slots, inline.handshakes, inline.slots)
		}
		if shared := len(p.segs) > 0; shared != c.shared {
			t.Fatalf("Wait(%d): %d segments, want shared=%v", c.waitOn, len(p.segs), c.shared)
		}
		if _, err := p.NewSimulator().Run(nil); err != nil {
			t.Fatalf("Wait(%d): %v", c.waitOn, err)
		}
	}
}
