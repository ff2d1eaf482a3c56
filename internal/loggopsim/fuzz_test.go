package loggopsim

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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

// fuzzCollectives picks a collective by the low three bits of an
// action's second byte. Slots 1, 2, 6 and 7 are rooted and hold a
// Bcast, the rest an Allreduce: the corpus was written when eight
// kinds filled the slots, so each input keeps every op where it stood,
// a rooted collective wherever one was.
var fuzzCollectives = [8]trace.OpKind{
	trace.OpAllreduce, trace.OpBcast, trace.OpBcast, trace.OpAllreduce,
	trace.OpAllreduce, trace.OpAllreduce, trace.OpBcast, trace.OpBcast,
}

// decodeFuzzCase reads three header bytes — rank count, placement and
// network, CE process (bit 8 of the placement byte places its ranks on
// nodes as the engine does, so a node's ranks share one detour
// schedule) — and then up to 64 three-byte actions: a
// point-to-point message (the send appended to one rank, the receive to
// another, as randomMatchedTrace does, so per-rank order follows one
// global order; a message that reuses its pair's previous tag leaves
// two receives one message can meet, and arrival order picks), a calc, a
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
// share one segment; in a one-tag ring both directions take one tag, so
// on two ranks both receives name the one neighbour and that tag.
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
	last := map[[2]int]int32{}        // the tag of each (sender, receiver) pair's latest message
	for i, tag := 3, int32(0); i+2 < len(data) && i < 3+3*64; i, tag = i+3, tag+1 {
		a, b, cc := int(data[i]), int(data[i+1]), int(data[i+2])
		r := b % ranks
		switch a % 8 {
		case 0, 1, 2:
			dst := (r + 1 + b>>3%(ranks-1)) % ranks
			size := fuzzSizes[cc%8]
			// Bits 32 and 64 once made the receive a wildcard; now
			// either reuses the pair's previous tag.
			t := tag
			if prev, ok := last[[2]int{r, dst}]; ok && cc&96 != 0 {
				t = prev
			}
			last[[2]int{r, dst}] = t
			if cc&8 != 0 {
				ops[r] = append(ops[r], trace.Isend(int32(dst), size, t, reqs[r]))
				pending[r] = append(pending[r], reqs[r])
				reqs[r]++
			} else {
				ops[r] = append(ops[r], trace.Send(int32(dst), size, t))
			}
			if cc&16 != 0 {
				ops[dst] = append(ops[dst], trace.Irecv(int32(r), size, t, reqs[dst]))
				pending[dst] = append(pending[dst], reqs[dst])
				reqs[dst]++
			} else {
				ops[dst] = append(ops[dst], trace.Recv(int32(r), size, t))
			}
		case 3:
			ops[r] = append(ops[r], trace.Calc(int64(cc)*500))
		case 4:
			if a&24 == 24 {
				back := int32(ringTag + 1) // the tag of the messages sent left
				if a&32 != 0 {
					back = ringTag
				}
				size := fuzzSizes[cc%8]
				for r := range ops {
					left, right := int32((r+ranks-1)%ranks), int32((r+1)%ranks)
					ops[r] = append(ops[r], trace.WaitAll(),
						trace.Irecv(left, size, ringTag, ringReq), trace.Irecv(right, size, back, ringReq+1),
						trace.Isend(right, size, ringTag, ringReq+2), trace.Isend(left, size, back, ringReq+3),
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
			if op.Kind == trace.OpBcast {
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
// handshake and slot counts from the three programs. Deadlocks must
// agree too, and a run that finishes must conserve time exactly
// (requireTimeConserved). It returns the reference's result.
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
	requireTimeConserved(t, "reference", want)
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

// requireTimeConserved requires, for a run that finished and kept a
// Profile, that each rank's work, detour and wait add up to its finish
// time to the nanosecond: a rank is always computing, detoured or
// blocked, so a charge counted twice or not at all shows here.
func requireTimeConserved(t testing.TB, label string, res *Result) {
	t.Helper()
	p := res.Profile
	if res.Deadlocked || p == nil {
		return
	}
	for r, finish := range res.FinishTimes {
		if sum := p.PerRankWork[r] + p.PerRankDetour[r] + p.PerRankWait[r]; sum != finish {
			t.Fatalf("%s: rank %d work %d + detour %d + wait %d = %d, finish time %d",
				label, r, p.PerRankWork[r], p.PerRankDetour[r], p.PerRankWait[r], sum, finish)
		}
	}
}

// fuzzSeeds are the hand-written seeds; testdata/fuzz holds inputs the
// fuzzer grew from them.
var fuzzSeeds = map[string]string{
	"eager-pingpong":   "\x00\x00\x00" + "\x00\x00\x03" + "\x00\x01\x03",
	"rendezvous-mixed": "\x02\x10\x00" + "\x00\x00\x07" + "\x00\x09\x1f" + "\x01\x02\x0e" + "\x03\x01\x40" + "\x00\x0a\x17" + "\x05\x01\x00" + "\x04\x02\x00",
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
	// Two ranks, rank 0 sending twice on each of two tags. Rank 1 posts
	// an Irecv, then blocks in a Recv for the same source and tag: the
	// eager message meets the Irecv, posted first, and the rendezvous
	// one the Recv. Then it posts an Irecv, frees an Isend's slot with
	// a Wait and posts an Irecv for the same source and tag into the
	// freed slot: the first message meets the earlier post, not the
	// lower slot.
	"reused-tags": "\x00\x00\x00" + "\x00\x00\x12" + "\x03\x00\xff" + "\x00\x00\x26" + "\x00\x01\x0a" + "\x00\x00\x12" +
		"\x05\x01\x01" + "\x00\x00\x36",
	// Three ranks: rank 0 and 1 repeat a rendezvous exchange between
	// calcs, rank 1 and 2 an eager one, beside an unrelated message.
	"repeated-exchanges": "\x01\x00\x00" + "\x0c\x00\x07" + "\x03\x00\x10" + "\x0c\x01\x02" + "\x0c\x00\x07" + "\x00\x02\x03" +
		"\x03\x01\x20" + "\x0c\x00\x07" + "\x0c\x01\x02",
	// Four ranks repeat an eager ring exchange and a rendezvous one-tag
	// ring, under CE noise; a message
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

// sharedSegment reports whether two ranks of p reference one segment.
func sharedSegment(p *Program) bool {
	first := map[int32]int{} // segment -> the first rank referencing it
	for r := 0; r < p.Ranks(); r++ {
		for _, seg := range p.segTab[p.rank[r].seg:p.rank[r+1].seg] {
			if f, ok := first[seg]; ok && f != r {
				return true
			}
			first[seg] = r
		}
	}
	return false
}

// twoOpenReceivesMatch reports whether a rank of tr posts a receive
// while an Irecv naming the same source and tag is still open, so that
// one message can meet either and post order decides.
func twoOpenReceivesMatch(tr *trace.Trace) bool {
	type key struct{ peer, tag int32 }
	for _, ops := range tr.Ops {
		open := map[int32]key{} // request id -> what its Irecv names
		for _, op := range ops {
			switch op.Kind {
			case trace.OpRecv, trace.OpIrecv:
				for _, k := range open {
					if k == (key{op.Peer, op.Tag}) {
						return true
					}
				}
				if op.Kind == trace.OpIrecv {
					open[op.Req] = key{op.Peer, op.Tag}
				}
			case trace.OpWait:
				delete(open, op.Req)
			case trace.OpWaitAll:
				clear(open)
			}
		}
	}
	return false
}

// decoderFeatures are the features of the decoder the seeds must reach
// between them, as reaches names them.
var decoderFeatures = []string{"rendezvous send", "two open receives one message can meet", "charged detour",
	"detour charged from a schedule a node's ranks share", "shared NIC", "shared exchange",
	"segment two ranks reference"}

// reaches names what case c reaches of the decoder's features, res
// being its reference run: each op kind it holds, the count of ops its
// expansion holds ("1447 ops"), whether it deadlocks and each of
// decoderFeatures.
func reaches(t testing.TB, c fuzzCase, res *Result) map[string]bool {
	t.Helper()
	got := map[string]bool{"shared NIC": c.cfg.RanksPerNode > 1, "deadlock": res.Deadlocked}
	for _, ops := range c.tr.Ops {
		for _, op := range ops {
			got[op.Kind.String()] = true
			if (op.Kind == trace.OpSend || op.Kind == trace.OpIsend) && op.Size > c.cfg.Net.S {
				got["rendezvous send"] = true
			}
		}
	}
	flat, err := collectives.Expand(c.tr, c.coll)
	if err != nil {
		t.Fatal(err)
	}
	got[fmt.Sprintf("%d ops", flat.NumOps())] = true
	streamed, err := streamedProgram(c.tr, c.coll, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := inlineProgram(c.tr, c.coll, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	got["shared exchange"] = len(streamed.segTab) > len(inline.segTab)
	got["segment two ranks reference"] = sharedSegment(streamed)
	got["two open receives one message can meet"] = twoOpenReceivesMatch(c.tr)
	if c.noise != nil && res.Profile.Detour > 0 {
		got["charged detour"] = true
		got["detour charged from a schedule a node's ranks share"] = c.noise.RanksPerNode > 1
	}
	return got
}

// TestReferenceCoversTheDecoder keeps the seeds honest: together they
// must reach both protocols, two open receives one message can meet, a
// deadlock-free collective of every kind, shared NICs, a CE process
// that charges detours, a program that shares an exchange and one where
// two ranks reference one segment — otherwise the fuzzer starts from
// programs that compare nothing.
func TestReferenceCoversTheDecoder(t *testing.T) {
	reached := map[string]bool{}
	for name, seed := range fuzzSeeds {
		c := decodeFuzzCase([]byte(seed))
		for what, ok := range reaches(t, c, requireMatchesReference(t, c)) {
			reached[what] = reached[what] || ok
		}
		t.Logf("%s: %d ranks, %d ops", name, c.tr.NumRanks(), c.tr.NumOps())
	}
	for _, k := range fuzzCollectives {
		if !reached[k.String()] {
			t.Errorf("no seed has a %s", k)
		}
	}
	for _, what := range decoderFeatures {
		if !reached[what] {
			t.Errorf("no seed has a %s", what)
		}
	}
}

// TestCorpusMeansWhatItsNamesSay holds each input the fuzzer found to
// what its name says it decodes to, so that a change to the decoder
// that moves one shows here.
func TestCorpusMeansWhatItsNamesSay(t *testing.T) {
	every := append([]string{"1447 ops"}, decoderFeatures...)
	for k := trace.OpCalc; k <= trace.OpAllreduce; k++ {
		every = append(every, k.String())
	}
	for name, want := range map[string][]string{
		"found-every-feature-1447-ops": every,
		"found-node-shared-detours-431-ops": {"431 ops", "shared NIC",
			"detour charged from a schedule a node's ranks share", "segment two ranks reference"},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata/fuzz/FuzzEngineMatchesReference", name))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		data, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: not one []byte input: %q", name, raw)
		}
		c := decodeFuzzCase([]byte(data))
		got := reaches(t, c, requireMatchesReference(t, c))
		for _, what := range want {
			if !got[what] {
				t.Errorf("%s does not reach %q", name, what)
			}
		}
	}
}
