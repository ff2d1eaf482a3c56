package loggopsim

import (
	"reflect"
	"runtime"
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

// flatOps flattens rank r's stream: every segment reference replaced by
// the segment's ops with the reference's bases added — the tag base to
// the ops that carry a tag, the request base to the ops that carry a
// request id, as collectives' splice adds them when it flattens a trace.
func (p *Program) flatOps(r int) []flatOp {
	var out []flatOp
	emit := func(op cop, tag, req int32) {
		f := flatOp{kind: op.kind, peer: op.peer, tag: op.tag, req: op.req, arg: op.arg}
		switch op.kind {
		case cEagerSend, cEagerIsend, cRdvSend, cRdvIsend:
			f.arg, f.cost = 0, p.costs[op.arg]
			f.tag += tag
		case cRecv, cIrecv:
			f.tag += tag
		}
		switch op.kind {
		case cEagerIsend, cRdvIsend, cIrecv, cWait:
			f.req += req
		}
		out = append(out, f)
	}
	for _, op := range p.code[r] {
		if op.kind != cSeg {
			emit(op, 0, 0)
			continue
		}
		for _, in := range p.segs[op.arg] {
			emit(in, op.tag, op.req)
		}
	}
	return out
}

// TestStreamedLoweringMatchesStaged: a program lowered a rank at a time
// from the expander's reports — streams, segments, cost table — is,
// flattened, the program Compile builds from collectives.Expand's flat
// trace: op for op, cost for cost, rendezvous and slot counts included,
// and a flat program has no segment. core's test of the same name pins
// NewExperiment to this lowering. Rank counts cover the two-rank
// exchange, an odd count, uneven grid factors, and power-of-two and cube
// sizes. Part of engine-smoke.
func TestStreamedLoweringMatchesStaged(t *testing.T) {
	cfg := Config{Net: netmodel.CrayXC40(), Profile: true}
	algos := []collectives.AllreduceAlgo{
		collectives.AllreduceAuto, collectives.AllreduceRecursiveDoubling,
		collectives.AllreduceRabenseifner, collectives.AllreduceRing,
	}
	segments := 0
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
				if len(staged.segs) != 0 {
					t.Fatalf("%s/%d/%s: a flat trace compiled to %d segments", wl, nodes, algo, len(staged.segs))
				}
				segments += len(streamed.segs)
				for r := range tr.Ops {
					if got, want := streamed.flatOps(r), staged.flatOps(r); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%d/%s: rank %d flattens to %d ops, staged has %d, or they differ", wl, nodes, algo, r, len(got), len(want))
					}
				}
				if streamed.rdvSends != staged.rdvSends || !reflect.DeepEqual(streamed.slots, staged.slots) {
					t.Fatalf("%s/%d/%s: streamed counts %d rendezvous sends and slots %v, staged %d and %v",
						wl, nodes, algo, streamed.rdvSends, streamed.slots, staged.rdvSends, staged.slots)
				}
			}
		}
	}
	if segments == 0 {
		t.Fatal("no workload lowered to a segment: the comparison was flat against flat")
	}
}

// TestProgramBytesPerOp: an op is 24 bytes, and a program lowered the
// way NewExperiment lowers it costs, per op of its expanded trace, at
// most 25 bytes on every workload and at most 16 where collectives
// dominate — their schedules are held once per rank, not once per
// instance.
func TestProgramBytesPerOp(t *testing.T) {
	if size := unsafe.Sizeof(cop{}); size > 24 {
		t.Fatalf("a compiled op is %d bytes, want at most 24", size)
	}
	cfg := Config{Net: netmodel.CrayXC40(), Profile: true}
	heavy := map[string]bool{"minife": true, "milc": true, "lammps-crack": true}
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
		if limit := map[bool]float64{true: 16, false: 25}[heavy[wl]]; perOp > limit {
			t.Errorf("%s: %.2f bytes per expanded op, want at most %v", wl, perOp, limit)
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
// barrier's first receive.
func TestDeadlockInsideSegmentNamesExpandedOp(t *testing.T) {
	tr := &trace.Trace{Name: "stray-recv", Ops: [][]trace.Op{
		{trace.Calc(100), trace.Calc(100), trace.Barrier(), trace.Calc(100), trace.Barrier()},
		{trace.Calc(100), trace.Recv(0, 8, 7), trace.Barrier(), trace.Calc(100), trace.Barrier()},
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
	if len(p.segs) != 2 {
		t.Fatalf("%d segments, want the barrier once per rank", len(p.segs))
	}
	res, err := p.NewSimulator().Run(nil)
	if err == nil || !res.Deadlocked || flatErr == nil || err.Error() != flatErr.Error() {
		t.Fatalf("segmented run: %v; flat run: %v", err, flatErr)
	}
	// Rank 0 is in the Wait of the barrier's Irecv/Send/Wait round:
	// expanded ops 0 and 1 are the calcs, 2 to 4 the round.
	if want := "first: rank 0 at op 4)"; !strings.HasSuffix(err.Error(), want) || flat.Ops[0][4].Kind != trace.OpWait {
		t.Fatalf("deadlock reported as %q, want it to end %q (flat op 4 is %s)", err, want, flat.Ops[0][4].Kind)
	}
}
