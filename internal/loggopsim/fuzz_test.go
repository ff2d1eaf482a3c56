package loggopsim

import (
	"slices"
	"testing"

	"repro/internal/collectives"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/trace"
)

// fuzzCase is what FuzzEngineMatchesReference decodes its bytes into.
type fuzzCase struct {
	tr    *trace.Trace // unexpanded: collectives still in it
	coll  collectives.Config
	cfg   Config
	noise *noise.Config // nil: no CE process
}

// fuzzSizes straddles both eager limits the decoder picks (256 B and the
// XC40's 8 KiB) and the 16 KiB point where AllreduceAuto changes
// algorithm.
var fuzzSizes = [8]int64{0, 1, 8, 200, 256, 257, 9000, 70000}

// An exchange's tag and first request id lie above every other
// action's, and a ring's above an exchange's.
const exchangeTag, exchangeReq = 1 << 20, 1 << 20
const ringTag, ringReq = 1 << 21, 1 << 21

var fuzzCollectives = [8]trace.OpKind{
	trace.OpBarrier, trace.OpBcast, trace.OpReduce, trace.OpAllreduce,
	trace.OpAllgather, trace.OpAlltoall, trace.OpGather, trace.OpScatter,
}

// decodeFuzzCase reads three header bytes — rank count, placement and
// network, CE process (bit 8 of the placement byte places its ranks on
// nodes as the engine does, so a node's ranks share one detour
// schedule) — and then up to 64 three-byte actions: a
// point-to-point message (the send appended to one rank, the receive to
// another, as randomMatchedTrace does, so per-rank order follows one
// global order and only a wildcard receive can steal a match), a calc, a
// Wait or WaitAll on a rank with requests outstanding, an exchange
// between two ranks, a ring exchange, or a collective appended to every
// rank. An exchange is the block a halo exchange repeats: on each of
// the two ranks a WaitAll, then an Irecv from and an Isend to the
// other, then a WaitAll, with the same tag and request ids every time,
// so an exchange met twice is one the builder shares (every other
// action numbers its tags and requests afresh). A ring exchange is the
// same block on every rank with its two neighbours — receive from
// both, send to both, one tag per direction — so ranks' blocks differ
// only by peer and ranks that met their neighbours in the same order
// share one segment; in a wildcard ring the receive from the left
// neighbour takes AnySource.
func decodeFuzzCase(data []byte) fuzzCase {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	ranks := 2 + at(0)%5
	c := fuzzCase{tr: &trace.Trace{Name: "fuzz", Ops: make([][]trace.Op, ranks)}}
	// Bits 4 and 8 of byte 1 once switched on a local network and extra
	// latency; bit 4 is read as nothing and bit 8 only by the CE process,
	// so the corpus keeps its traces.
	c.cfg = Config{Net: netmodel.CrayXC40(), Profile: true, RanksPerNode: 1 + at(1)%3}
	if at(1)&16 != 0 {
		c.cfg.Net.S = 256
	}
	c.coll.Allreduce = collectives.AllreduceAlgo(at(1) >> 5 % 4)
	if b := at(2); b != 0 {
		var dur noise.Duration = noise.Fixed(int64(1+b>>3%4) * 2000)
		if b&128 != 0 {
			dur = noise.EveryNth{Base: 1000, Extra: 9000, N: 3}
		}
		c.noise = &noise.Config{Seed: uint64(b), Arrivals: noise.Poisson(int64(1+b%8) * 20000),
			Duration: dur, Target: noise.AllNodes}
		if at(1)&8 != 0 {
			c.noise.RanksPerNode = c.cfg.RanksPerNode
		}
	}
	ops := c.tr.Ops
	reqs := make([]int32, ranks)      // next request id per rank
	pending := make([][]int32, ranks) // outstanding request ids per rank
	for i, tag := 3, int32(0); i+2 < len(data) && i < 3+3*64; i, tag = i+3, tag+1 {
		a, b, cc := int(data[i]), int(data[i+1]), int(data[i+2])
		r := b % ranks
		switch a % 8 {
		case 0, 1, 2:
			dst := (r + 1 + b>>3%(ranks-1)) % ranks
			size := fuzzSizes[cc%8]
			if cc&8 != 0 {
				ops[r] = append(ops[r], trace.Isend(int32(dst), size, tag, reqs[r]))
				pending[r] = append(pending[r], reqs[r])
				reqs[r]++
			} else {
				ops[r] = append(ops[r], trace.Send(int32(dst), size, tag))
			}
			from, want := int32(r), tag
			if cc&32 != 0 {
				from = trace.AnySource
			}
			if cc&64 != 0 {
				want = trace.AnyTag
			}
			if cc&16 != 0 {
				ops[dst] = append(ops[dst], trace.Irecv(from, size, want, reqs[dst]))
				pending[dst] = append(pending[dst], reqs[dst])
				reqs[dst]++
			} else {
				ops[dst] = append(ops[dst], trace.Recv(from, size, want))
			}
		case 3:
			ops[r] = append(ops[r], trace.Calc(int64(cc)*500))
		case 4:
			if a&24 == 24 {
				from := func(r int) int32 { return int32((r + ranks - 1) % ranks) }
				if a&32 != 0 {
					from = func(int) int32 { return trace.AnySource }
				}
				size := fuzzSizes[cc%8]
				for r := range ops {
					left, right := int32((r+ranks-1)%ranks), int32((r+1)%ranks)
					ops[r] = append(ops[r], trace.WaitAll(),
						trace.Irecv(from(r), size, ringTag, ringReq), trace.Irecv(right, size, ringTag+1, ringReq+1),
						trace.Isend(right, size, ringTag, ringReq+2), trace.Isend(left, size, ringTag+1, ringReq+3),
						trace.WaitAll())
					pending[r] = nil
				}
			} else if a&8 != 0 {
				dst := int32((r + 1 + b>>3%(ranks-1)) % ranks)
				size := fuzzSizes[cc%8]
				for _, x := range [2][2]int32{{int32(r), dst}, {dst, int32(r)}} {
					ops[x[0]] = append(ops[x[0]], trace.WaitAll(),
						trace.Irecv(x[1], size, exchangeTag, exchangeReq),
						trace.Isend(x[1], size, exchangeTag, exchangeReq+1),
						trace.WaitAll())
					pending[x[0]] = nil
				}
			} else if len(pending[r]) > 0 {
				ops[r] = append(ops[r], trace.WaitAll())
				pending[r] = nil
			}
		case 5:
			if len(pending[r]) > 0 {
				k := cc % len(pending[r])
				ops[r] = append(ops[r], trace.Wait(pending[r][k]))
				pending[r] = append(pending[r][:k], pending[r][k+1:]...)
			}
		default:
			op := trace.Op{Kind: fuzzCollectives[b%8], Size: fuzzSizes[cc%8]}
			if op.Kind.IsRooted() {
				op.Peer = int32(b >> 3 % ranks)
			}
			for r := range ops {
				ops[r] = append(ops[r], op)
			}
		}
	}
	for r := range ops {
		if len(pending[r]) > 0 {
			ops[r] = append(ops[r], trace.WaitAll())
		}
	}
	return c
}

// streamedProgram lowers a trace the way core.NewExperiment does: a
// rank at a time, the expander reporting to the builder, so every
// collective instance and every repeated exchange becomes a reference
// to a per-rank segment.
func streamedProgram(tr *trace.Trace, coll collectives.Config, cfg Config) (*Program, error) {
	return lowerByRank(tr, coll, cfg, func(b *Builder) collectives.Sink { return b })
}

// inlineSink lowers the way the builder did before it shared exchanges:
// every run of plain ops goes onto the stream as it is.
type inlineSink struct{ *Builder }

func (s inlineSink) Ops(ops []trace.Op) { s.inline(ops) }

// inlineProgram is streamedProgram with every exchange inline.
func inlineProgram(tr *trace.Trace, coll collectives.Config, cfg Config) (*Program, error) {
	return lowerByRank(tr, coll, cfg, func(b *Builder) collectives.Sink { return inlineSink{b} })
}

func lowerByRank(tr *trace.Trace, coll collectives.Config, cfg Config, sink func(*Builder) collectives.Sink) (*Program, error) {
	x, err := collectives.NewExpander(tr.NumRanks(), coll)
	if err != nil {
		return nil, err
	}
	b, err := NewBuilder(tr.NumRanks(), cfg)
	if err != nil {
		return nil, err
	}
	for r, ops := range tr.Ops {
		if err := b.StartRank(r); err != nil {
			return nil, err
		}
		if err := x.ExpandRank(sink(b), r, ops); err != nil {
			return nil, err
		}
	}
	return b.Program()
}

// requireMatchesReference runs the case four ways — the reference
// interpreter on collectives.Expand's flat trace, the engine on the
// program compiled from that trace, on the program lowered rank by rank
// into streams and segments, and on that lowering with every exchange
// inline — and requires the same per-rank finish times, message, byte
// and event counts, termination and Profile from all, and the same
// handshake and slot counts from the three programs. Deadlocks (a
// wildcard receive that stole a match) must agree too. It returns the
// reference's result.
func requireMatchesReference(t testing.TB, c fuzzCase) *Result {
	t.Helper()
	if err := c.tr.Validate(); err != nil {
		t.Fatalf("decoder produced an invalid trace: %v", err)
	}
	flat, err := collectives.Expand(c.tr, c.coll)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceRun(flat, c.cfg, c.noise)
	compiled, err := Compile(flat, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := streamedProgram(c.tr, c.coll, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := inlineProgram(c.tr, c.coll, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for label, p := range map[string]*Program{"compiled": compiled, "streamed": streamed, "inline": inline} {
		if p.handshakes != inline.handshakes || !slices.Equal(p.slots, inline.slots) {
			t.Fatalf("%s: %d handshakes and slots %v, inline %d and %v", label, p.handshakes, p.slots, inline.handshakes, inline.slots)
		}
		var nm noise.Model
		if c.noise != nil {
			if nm, err = noise.NewCE(c.tr.NumRanks(), *c.noise); err != nil {
				t.Fatal(err)
			}
		}
		got, err := p.NewSimulator().Run(nm)
		if (err != nil) != want.Deadlocked {
			t.Fatalf("%s: engine error %v, reference deadlocked=%v", label, err, want.Deadlocked)
		}
		requireIdentical(t, label+" engine vs reference", want, got)
	}
	return want
}

// fuzzSeeds are the hand-written seeds; testdata/fuzz holds inputs the
// fuzzer grew from them.
var fuzzSeeds = map[string]string{
	"eager-pingpong":   "\x00\x00\x00" + "\x00\x00\x03" + "\x00\x01\x03",
	"rendezvous-mixed": "\x02\x10\x00" + "\x00\x00\x07" + "\x00\x09\x1f" + "\x01\x02\x0e" + "\x03\x01\x40" + "\x00\x0a\x17" + "\x05\x01\x00" + "\x04\x02\x00",
	"wildcards":        "\x01\x00\x00" + "\x00\x00\x33" + "\x00\x08\x53" + "\x00\x01\x72" + "\x03\x00\x10" + "\x00\x02\x2b",
	"collectives":      "\x03\x00\x00" + "\x06\x00\x00" + "\x06\x03\x02" + "\x07\x0b\x03" + "\x06\x03\x07" + "\x06\x05\x03" + "\x07\x04\x02" + "\x06\x16\x04" + "\x06\x0f\x03" + "\x06\x02\x06",
	"everything": "\x04\x7d\x2b" + "\x06\x03\x07" + "\x00\x0b\x1e" + "\x03\x02\x33" + "\x00\x13\x0f" + "\x06\x00\x00" + "\x01\x04\x36" + "\x05\x00\x01" +
		"\x06\x09\x05" + "\x02\x1a\x4c" + "\x04\x03\x00" + "\x07\x06\x06" + "\x00\x21\x07" + "\x06\x01\x03" + "\x03\x04\xff" + "\x06\x05\x07",
	"noise-every-nth": "\x02\x25\x83" + "\x03\x00\xf0" + "\x06\x03\x03" + "\x00\x00\x0e" + "\x03\x01\xc8" + "\x06\x04\x01" + "\x00\x0a\x16" + "\x06\x00\x00",
	// Four ranks: rank 1 waits for a late eager message from rank 2 while
	// rank 0's 70 000-byte Isend to it waits in its unexpected list; rank
	// 3's blocking rendezvous send to rank 0 lands and releases its
	// record, rank 0 answers with an eager message, and rank 3's next
	// rendezvous send takes the released index (TestNoRecordRetention
	// checks it does).
	"reuse-beside-unexpected": "\x02\x00\x00" + "\x03\x02\xff" + "\x00\x12\x03" + "\x00\x00\x0f" + "\x00\x03\x07" + "\x00\x10\x03" + "\x00\x03\x07",
	// Three ranks: rank 0 and 1 repeat a rendezvous exchange between
	// calcs, rank 1 and 2 an eager one, beside an unrelated message.
	"repeated-exchanges": "\x01\x00\x00" + "\x0c\x00\x07" + "\x03\x00\x10" + "\x0c\x01\x02" + "\x0c\x00\x07" + "\x00\x02\x03" +
		"\x03\x01\x20" + "\x0c\x00\x07" + "\x0c\x01\x02",
	// Four ranks repeat an eager ring exchange and a rendezvous one whose
	// receive from the left takes AnySource, under CE noise; a message
	// from rank 0 to rank 3 first makes rank 3 meet its neighbours in
	// another order, so it shares neither segment.
	"rings": "\x02\x00\x11" + "\x00\x10\x03" + "\x1c\x00\x03" + "\x03\x00\x10" + "\x1c\x00\x03" + "\x3c\x00\x07" +
		"\x03\x01\x20" + "\x3c\x00\x07",
	// Six ranks three to a node, each node's three sharing a NIC, repeat
	// both rings.
	"rings-shared-nic": "\x04\x05\x00" + "\x1c\x00\x05" + "\x03\x02\x40" + "\x1c\x00\x05" + "\x3c\x00\x06" + "\x3c\x00\x06",
}

func FuzzEngineMatchesReference(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireMatchesReference(t, decodeFuzzCase(data))
	})
}

// sharedSegments reports whether two ranks of p reference one segment,
// and whether one such segment holds a wildcard receive.
func sharedSegments(p *Program) (shared, wild bool) {
	first := map[int32]int{} // segment -> the first rank referencing it
	for r := 0; r < p.Ranks(); r++ {
		for _, seg := range p.segTab[p.rank[r].seg:p.rank[r+1].seg] {
			if f, ok := first[seg]; !ok || f == r {
				first[seg] = r
				continue
			}
			shared = true
			wild = wild || slices.ContainsFunc(p.segs[seg], func(op cop) bool {
				return (op.kind == cIrecv || op.kind == cRecv) && op.peer == trace.AnySource
			})
		}
	}
	return shared, wild
}

// TestReferenceCoversTheDecoder keeps the seeds honest: together they
// must reach both protocols, wildcards, a deadlock-free collective of
// every kind, shared NICs, a CE process that charges detours, a program
// that shares an exchange and one where two ranks reference one segment
// holding a wildcard receive — otherwise the fuzzer starts from programs
// that compare nothing.
func TestReferenceCoversTheDecoder(t *testing.T) {
	var rdv, wild, detour, sharedDetour, shared, exchange, crossRank, crossRankWild bool
	kinds := map[trace.OpKind]bool{}
	for name, seed := range fuzzSeeds {
		c := decodeFuzzCase([]byte(seed))
		requireMatchesReference(t, c)
		shared = shared || c.cfg.RanksPerNode > 1
		for _, ops := range c.tr.Ops {
			for _, op := range ops {
				kinds[op.Kind] = true
				rdv = rdv || (op.Kind == trace.OpSend || op.Kind == trace.OpIsend) && op.Size > c.cfg.Net.S
				wild = wild || (op.Kind == trace.OpRecv || op.Kind == trace.OpIrecv) && (op.Peer == trace.AnySource || op.Tag == trace.AnyTag)
			}
		}
		streamed, err := streamedProgram(c.tr, c.coll, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		inline, err := inlineProgram(c.tr, c.coll, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		exchange = exchange || len(streamed.segTab) > len(inline.segTab)
		cross, crossWild := sharedSegments(streamed)
		crossRank, crossRankWild = crossRank || cross, crossRankWild || crossWild
		if c.noise != nil {
			flat, _ := collectives.Expand(c.tr, c.coll)
			charged := referenceRun(flat, c.cfg, c.noise).Profile.Detour > 0
			detour = detour || charged
			sharedDetour = sharedDetour || charged && c.noise.RanksPerNode > 1
		}
		t.Logf("%s: %d ranks, %d ops", name, c.tr.NumRanks(), c.tr.NumOps())
	}
	for _, k := range fuzzCollectives {
		if !kinds[k] {
			t.Errorf("no seed has a %s", k)
		}
	}
	for what, ok := range map[string]bool{"rendezvous send": rdv, "wildcard receive": wild, "charged detour": detour,
		"detour charged from a schedule a node's ranks share": sharedDetour,
		"shared NIC": shared, "shared exchange": exchange,
		"segment two ranks reference": crossRank, "wildcard receive in a segment two ranks reference": crossRankWild} {
		if !ok {
			t.Errorf("no seed has a %s", what)
		}
	}
}
