// Package loggopsim is a discrete-event simulator for MPI traces under
// the LogGOPS network model, in the spirit of LogGOPSim (Hoefler,
// Schneider, Lumsdaine, HPDC'10) and the resilience-study tool chain of
// Levy et al.
//
// The simulator replays per-rank operation traces (package trace) whose
// collectives have already been expanded into point-to-point schedules
// (package collectives). It reproduces every communication dependency, so
// a CPU detour on one rank — such as correctable-error logging — delays
// exactly the ranks that transitively depend on it.
//
// # Model
//
// Each rank owns a CPU timeline (clock: when its control flow can next
// execute) and a NIC timeline (nicFree: when its NIC can inject the next
// message; successive injections are separated by g + (s-1)G). Messages
// of size <= S use the eager protocol: sender pays o + (s-1)O of CPU,
// the payload lands at the destination L + (s-1)G after injection, and
// the receiver pays o + (s-1)O when (and not before) a matching receive
// is executed. Messages above S use rendezvous: the sender pays o and
// emits a ready-to-send control message; when the receiver has both the
// RTS and a matching posted receive, a clear-to-send returns to the
// sender (L each way), after which the payload moves as in the eager
// case. A blocking send therefore cannot complete before the receiver
// matches — the synchronization that lets delays propagate upstream.
//
// Simplifications relative to a full MPI stack, chosen to keep the noise
// semantics exact while staying O(events):
//
//   - nonblocking rendezvous sends charge the payload injection to the
//     NIC only (no retroactive CPU charge at CTS time);
//   - receive-side per-byte CPU (O) is charged when the receive or wait
//     completes rather than being pipelined with arrival;
//   - message matching is (source, tag) with wildcards in post order;
//     same-peer non-overtaking across different sizes is not enforced.
//
// CPU detours are injected through a noise.Model: every CPU-busy
// interval (calc, send overhead, receive overhead) is stretched by the
// detours that arrive during it.
//
// # Layout
//
// A trace is compiled once into an immutable Program (program.go) that
// any number of goroutines run at once, each on its own Simulator — the
// mutable state of a run and the run loop (this file) plus the message
// protocol (protocol.go).
package loggopsim

import (
	"fmt"
	"unsafe"

	"repro/internal/eventq"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/trace"
)

// Config parameterizes a simulation run.
type Config struct {
	// Net is the LogGOPS parameter set for inter-node messages.
	Net netmodel.Params
	// LocalNet, when non-nil, is the parameter set for messages between
	// ranks on the same node (shared-memory transport). Nil means all
	// messages use Net.
	LocalNet *netmodel.Params
	// RanksPerNode places this many consecutive ranks on each node
	// (rank r lives on node r/RanksPerNode). The node's NIC is shared:
	// injections from co-located ranks serialize through one gap
	// timeline. Zero means 1. With more than one rank per node use a
	// correlated noise model (noise.SharedCE): the per-node streaming
	// model assumes one rank per node.
	RanksPerNode int
	// ExtraLatency, when non-nil, adds topology-dependent latency to
	// every message between two ranks (control and payload alike):
	// e.g. extra global-link hops between dragonfly groups. See
	// netmodel.DragonflyExtra.
	ExtraLatency func(src, dst int32) int64
	// Noise injects CPU detours; nil means no noise. The model is
	// called with the *rank* id; node-level models derive the node.
	Noise noise.Model
	// MaxTime aborts the simulation when the event clock passes this
	// horizon (ns). Zero disables the horizon.
	MaxTime int64
	// Profile enables per-rank time decomposition (Result.Profile):
	// requested CPU work, detour time added by the noise model, and
	// blocked time spent waiting for messages. Costs one extra O(ranks)
	// allocation and a few counters per operation.
	Profile bool
}

// Profile decomposes where simulated time went. All values are sums
// over ranks, in nanoseconds; the per-rank slices are populated only
// when profiling was enabled.
type Profile struct {
	// Work is the CPU time the traces asked for (compute plus
	// messaging overheads), before noise.
	Work int64
	// Detour is the extra CPU time injected by the noise model.
	Detour int64
	// Wait is the time ranks spent blocked on messages (receives,
	// rendezvous handshakes, waits) beyond their own CPU activity.
	Wait int64
	// PerRankWork, PerRankDetour and PerRankWait break the totals down
	// by rank.
	PerRankWork, PerRankDetour, PerRankWait []int64
}

// Result summarizes a simulation.
type Result struct {
	// Makespan is the finish time of the slowest rank, ns.
	Makespan int64
	// FinishTimes holds each rank's completion time, ns.
	FinishTimes []int64
	// Messages is the number of point-to-point payloads delivered.
	Messages uint64
	// BytesMoved is the total payload bytes delivered.
	BytesMoved int64
	// Events is the number of simulator events processed.
	Events uint64
	// Deadlocked is set when ranks were blocked with no pending events.
	Deadlocked bool
	// TimedOut is set when the MaxTime horizon fired.
	TimedOut bool
	// Profile is the time decomposition; nil unless Config.Profile.
	Profile *Profile
}

// Event kinds (eventq.Event.Kind).
const (
	evEagerArrive int32 = iota // payload arrival; A=src, B=size, C=tag
	evRTSArrive                // rendezvous request arrival; A=msg index
	evCTSArrive                // clear-to-send back at sender; A=msg index
	evDataArrive               // rendezvous payload arrival; A=msg index
)

// blockKind describes why a rank is not advancing.
type blockKind uint8

const (
	notBlocked      blockKind = iota
	blockedRecv               // blocking receive posted, waiting for match/data
	blockedSendCTS            // blocking rendezvous send, waiting for CTS
	blockedSendDone           // blocking rendezvous send, payload injection done at wake
	blockedWait               // waiting on one request
	blockedWaitAll            // waiting on all outstanding requests
	finished
)

type rankState struct {
	// pc is the next op in the frame the rank is executing: its stream,
	// or, while seg >= 0, segment seg of the program, entered from the
	// stream op before ret and run with tagBase and reqBase added to its
	// ops' tags and request ids (both zero in the stream).
	pc, ret          int
	seg              int32
	tagBase, reqBase int32
	clock            int64
	block            blockKind
	blockReq         int32 // for blockedWait
	blockMsg         int32 // rendezvous msg index for blockedSendCTS / blockedRecv data wait
	slots            []slot
	unexpected       []unexp
	// freeMin is a lower bound on the inactive slot indices: no slot
	// below it is free. addSlot resumes its lowest-free scan here
	// instead of index 0, which keeps allocation O(1) amortized while
	// preserving the lowest-index-first assignment the matching order
	// depends on.
	freeMin int32
	// pending counts slots that are active and not done — the number
	// of outstanding requests a WaitAll must wait for. Maintained at
	// every done/active transition so doWaitAll's readiness check
	// (which runs on every completion event while blocked) is O(1).
	pending int32
	// posted lists the matchable posted irecvs — active, not done, not
	// claimed, req >= 0 — in ascending slot-index order, so arrival
	// matching scans only receive candidates in the exact order the
	// full slot scan used to visit them. Each entry carries the match
	// key (peer, tag) so the scan stays inside this contiguous list
	// instead of dereferencing the slot table per probe.
	posted []postedEnt
}

// Simulator is the mutable state of one run of a Program: the event
// queue, per-rank CPU/NIC timelines, match queues and profile
// counters. Program.NewSimulator preallocates it; Run then replays the
// program as many times as needed, reusing that state across calls.
// This makes the repeated-run hot path — the paper averages >= 8 seeded
// runs per (workload, system, scenario) point — nearly allocation-free:
// only the per-run Result (finish times and, when enabled, the profile)
// is freshly allocated so callers may retain results across runs.
//
// A Simulator is not safe for concurrent use; run one per goroutine
// (they may all share one Program). Results are bit-identical to a
// fresh Simulate call with the same trace, configuration and noise
// model.
type Simulator struct {
	p      *Program
	nic    []int64 // per-node NIC-free time
	noise  noise.Model
	ranks  []rankState
	msgs   []rdvMsg
	q      *eventq.Queue
	res    Result
	active int      // ranks not yet finished
	prof   *Profile // nil unless profiling
	// profRank accumulates the per-rank time decomposition in one
	// cache-friendly struct per rank; finishResult materializes it
	// into the Profile's per-rank slices and totals.
	profRank []rankProf

	// peek and nextNoise elide noise.Model.Extend calls: when the
	// model can report its next arrival time (noise.ArrivalPeeker),
	// work intervals ending at or before it — at realistic MTBCEs,
	// nearly all of them — complete with two compares instead of an
	// interface call and a stream walk. nextNoise[r] is MaxInt64 for
	// noise-free runs and MinInt64 (always call) for opaque models.
	peek      noise.ArrivalPeeker
	nextNoise []int64
}

// rankProf is the per-rank profile accumulator.
type rankProf struct {
	work, detour, wait int64
}

// NewSimulator allocates the state for one run of the program at a
// time, at the sizes the program counted while it was lowered: msgs
// never grows, and each rank's slot table and posted list are windows
// of one slab, as long as the rank's high-water mark (a trace whose
// Waits name no outstanding request can exceed it; the window's
// capacity stops at its end, so such a rank moves to an allocation of
// its own). The event queue starts with a node for every other slot —
// a send and the receive it meets hold a slot each while one event
// crosses between them, and on all 108 simulate_cold configurations
// half the slots is exactly the most events a run ever has waiting; a
// run that exceeds it grows the pool. The queue is private
// to this program's runs: the ring geometry it learns fits this
// program's event population and nothing else's.
func (p *Program) NewSimulator() *Simulator {
	n := p.Ranks()
	total := 0
	for _, k := range p.slots {
		total += int(k)
	}
	s := &Simulator{
		p:         p,
		nic:       make([]int64, p.nodes),
		ranks:     make([]rankState, n),
		msgs:      make([]rdvMsg, 0, p.rdvSends),
		q:         eventq.New(total / 2),
		nextNoise: make([]int64, n),
	}
	slots, posted := make([]slot, total), make([]postedEnt, total)
	lo := 0
	for r, k := range p.slots {
		hi := lo + int(k)
		s.ranks[r].slots = slots[lo:lo:hi]
		s.ranks[r].posted = posted[lo:lo:hi]
		lo = hi
	}
	if p.cfg.Profile {
		s.profRank = make([]rankProf, n)
	}
	return s
}

// SizeBytes is the memory the run state holds on to between runs —
// capacities, not lengths, since reset keeps every one: the event
// queue, the per-rank state with each rank's slot, posted and
// unexpected tables, the rendezvous messages, and the NIC, noise and
// profile arrays.
func (s *Simulator) SizeBytes() int64 {
	size := s.q.SizeBytes() +
		int64(cap(s.ranks))*int64(unsafe.Sizeof(rankState{})) +
		int64(cap(s.msgs))*int64(unsafe.Sizeof(rdvMsg{})) +
		int64(cap(s.nic)+cap(s.nextNoise))*8 +
		int64(cap(s.profRank))*int64(unsafe.Sizeof(rankProf{}))
	for r := range s.ranks {
		st := &s.ranks[r]
		size += int64(cap(st.slots))*int64(unsafe.Sizeof(slot{})) +
			int64(cap(st.posted))*int64(unsafe.Sizeof(postedEnt{})) +
			int64(cap(st.unexpected))*int64(unsafe.Sizeof(unexp{}))
	}
	return size
}

// NewSimulator compiles the trace (see Compile) and returns a
// Simulator for it. Callers that run one trace from several goroutines
// Compile once and take a Simulator per goroutine instead.
func NewSimulator(tr *trace.Trace, cfg Config) (*Simulator, error) {
	p, err := Compile(tr, cfg)
	if err != nil {
		return nil, err
	}
	return p.NewSimulator(), nil
}

// Ranks returns the number of ranks the simulator was built for.
func (s *Simulator) Ranks() int { return len(s.ranks) }

// reset restores the preallocated state to time zero, keeping every
// slice's capacity, and installs the noise model for the next run.
func (s *Simulator) reset(nm noise.Model) {
	if nm == nil {
		nm = s.p.cfg.Noise
	}
	if nm == nil {
		nm = noise.None{}
	}
	s.noise = nm
	s.q.Reset()
	for i := range s.nic {
		s.nic[i] = 0
	}
	s.msgs = s.msgs[:0]
	for r := range s.ranks {
		st := &s.ranks[r]
		st.pc, st.ret, st.seg, st.tagBase, st.reqBase = 0, 0, -1, 0, 0
		st.clock = 0
		st.block = notBlocked
		st.blockReq = 0
		st.blockMsg = -1
		st.slots = st.slots[:0]
		st.unexpected = st.unexpected[:0]
		st.freeMin = 0
		st.pending = 0
		st.posted = st.posted[:0]
	}
	s.res = Result{}
	s.active = len(s.ranks)
	switch m := nm.(type) {
	case noise.None:
		s.peek = nil
		for r := range s.nextNoise {
			s.nextNoise[r] = maxInt64
		}
	case noise.ArrivalPeeker:
		s.peek = m
		for r := range s.nextNoise {
			s.nextNoise[r] = m.NextArrival(int32(r))
		}
	default:
		s.peek = nil
		for r := range s.nextNoise {
			s.nextNoise[r] = minInt64
		}
	}
	if s.p.cfg.Profile {
		// Fresh profile per run: callers retain Result.Profile.
		n := len(s.ranks)
		s.prof = &Profile{
			PerRankWork:   make([]int64, n),
			PerRankDetour: make([]int64, n),
			PerRankWait:   make([]int64, n),
		}
		s.res.Profile = s.prof
		for i := range s.profRank {
			s.profRank[i] = rankProf{}
		}
	} else {
		s.prof = nil
	}
}

// Run replays the trace under the given noise model (nil falls back to
// Config.Noise, then to no noise) and returns a freshly allocated
// result. Deadlocks and horizon timeouts return a non-nil error
// alongside the partial result. Internal state is reset and reused
// across calls; previously returned Results are never mutated.
func (s *Simulator) Run(nm noise.Model) (*Result, error) {
	s.reset(nm)
	// Kick every rank at t=0.
	for r := range s.ranks {
		s.advance(int32(r))
	}
	maxTime := s.p.cfg.MaxTime
	for s.q.Len() > 0 {
		e := s.q.Pop()
		s.res.Events++
		if maxTime > 0 && e.Time > maxTime {
			s.res.TimedOut = true
			s.finishResult()
			out := s.res
			return &out, fmt.Errorf("loggopsim: horizon %dns exceeded at t=%dns", s.p.cfg.MaxTime, e.Time)
		}
		switch e.Kind {
		case evEagerArrive:
			s.eagerArrive(e.Rank, e.A, e.B, e.C, e.Time)
		case evRTSArrive:
			s.rtsArrive(e.A, e.Time)
		case evCTSArrive:
			s.ctsArrive(e.A, e.Time)
		case evDataArrive:
			s.dataArrive(e.A, e.Time)
		default:
			return nil, fmt.Errorf("loggopsim: unknown event kind %d", e.Kind)
		}
	}
	s.finishResult()
	out := s.res
	if s.active > 0 {
		out.Deadlocked = true
		return &out, fmt.Errorf("loggopsim: deadlock, %d ranks blocked (first: rank %d at op %d)",
			s.active, s.firstBlocked(), s.expandedPC(s.firstBlocked()))
	}
	return &out, nil
}

// Simulate runs the trace to completion and returns the result. The
// trace must be collective-free (see collectives.Expand); a collective
// op is reported as an error. Deadlocks and horizon timeouts return a
// non-nil error alongside the partial result. One-shot convenience
// wrapper; repeated-run callers should build a Simulator once and Run
// it per seed.
func Simulate(tr *trace.Trace, cfg Config) (*Result, error) {
	s, err := NewSimulator(tr, cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(cfg.Noise)
}

func (s *Simulator) firstBlocked() int32 {
	for r := range s.ranks {
		if s.ranks[r].block != finished {
			return int32(r)
		}
	}
	return 0
}

// expandedPC is where rank r stands counted in ops of its expanded
// trace — every segment reference behind it at the segment's length —
// which is the index a reader of the trace can look up.
func (s *Simulator) expandedPC(r int32) int {
	st := &s.ranks[r]
	at, pc := 0, st.pc
	if st.seg >= 0 {
		at, pc = st.pc, st.ret-1
	}
	for _, op := range s.p.code[r][:pc] {
		if op.kind == cSeg {
			at += len(s.p.segs[op.arg])
		} else {
			at++
		}
	}
	return at
}

func (s *Simulator) finishResult() {
	s.res.FinishTimes = make([]int64, len(s.ranks))
	for r := range s.ranks {
		s.res.FinishTimes[r] = s.ranks[r].clock
		if s.ranks[r].clock > s.res.Makespan {
			s.res.Makespan = s.ranks[r].clock
		}
	}
	if s.prof != nil {
		for r := range s.profRank {
			p := &s.profRank[r]
			s.prof.PerRankWork[r] = p.work
			s.prof.PerRankDetour[r] = p.detour
			s.prof.PerRankWait[r] = p.wait
			s.prof.Work += p.work
			s.prof.Detour += p.detour
			s.prof.Wait += p.wait
		}
	}
}

// extend charges CPU work on a rank, stretched by noise detours. When
// the start time is beyond the rank's current clock the difference is
// blocked (waiting) time. The noise model is consulted only when its
// next arrival can land strictly inside the window; CE semantics make
// the skipped call a no-op (arrivals at or after the window end are
// never charged to it, and idle arrivals are dropped lazily either
// way), so the elision is bit-exact.
func (s *Simulator) extend(rank int32, start, dur int64) int64 {
	end := start + dur
	if end > s.nextNoise[rank] {
		end = s.extendSlow(rank, start, dur)
	}
	if s.profRank != nil {
		p := &s.profRank[rank]
		p.work += dur
		p.detour += end - start - dur
		if wait := start - s.ranks[rank].clock; wait > 0 {
			p.wait += wait
		}
	}
	return end
}

// extendSlow is the out-of-line noise consultation: the model walks its
// arrival stream, and the cached next-arrival time is refreshed.
func (s *Simulator) extendSlow(rank int32, start, dur int64) int64 {
	end := s.noise.Extend(rank, start, dur)
	if s.peek != nil {
		s.nextNoise[rank] = s.peek.NextArrival(rank)
	}
	return end
}

// inject reserves the sender's node NIC for a message of size bytes
// that is ready at time ready, and returns the injection time.
func (s *Simulator) inject(rank int32, ready int64, p *netmodel.Params, size int64) int64 {
	node := s.p.node[rank]
	inj := ready
	if s.nic[node] > inj {
		inj = s.nic[node]
	}
	s.nic[node] = inj + p.NICGap(size)
	return inj
}

// advance executes ops on rank r until it blocks or finishes. The hot
// cases inline the noise-elided CPU extension (see extend) so the
// common op costs a handful of integer instructions. A segment
// reference switches the frame to the segment and the end of a segment
// switches it back, so a rank can block and resume anywhere in either.
func (s *Simulator) advance(r int32) {
	st := &s.ranks[r]
	st.block = notBlocked
	ops := s.p.code[r]
	if st.seg >= 0 {
		ops = s.p.segs[st.seg]
	}
	for {
		for st.pc < len(ops) {
			op := &ops[st.pc]
			switch op.kind {
			case cCalc:
				end := st.clock + op.arg
				if end > s.nextNoise[r] {
					end = s.extendSlow(r, st.clock, op.arg)
				}
				if s.profRank != nil {
					p := &s.profRank[r]
					p.work += op.arg
					p.detour += end - st.clock - op.arg
				}
				st.clock = end
			case cEagerIsend:
				c := &s.p.costs[op.arg]
				s.eagerSend(r, st, op, c)
				s.addSlot(st, slot{req: op.req + st.reqBase, peer: op.peer, tag: op.tag + st.tagBase, size: c.size, done: true, ready: st.clock, active: true})
			case cIrecv:
				s.postIrecv(r, op)
			case cWaitAll:
				if !s.doWaitAll(r) {
					return
				}
			case cEagerSend:
				s.eagerSend(r, st, op, &s.p.costs[op.arg])
			case cRdvIsend:
				c := &s.p.costs[op.arg]
				s.startRdv(r, st, op, c, op.req+st.reqBase)
				s.addSlot(st, slot{req: op.req + st.reqBase, peer: op.peer, tag: op.tag + st.tagBase, size: c.size, active: true})
			case cRdvSend:
				// Rendezvous blocking send: pay o, emit RTS, block until CTS.
				idx := s.startRdv(r, st, op, &s.p.costs[op.arg], -1)
				st.block = blockedSendCTS
				st.blockMsg = idx
				return
			case cRecv:
				if !s.startRecv(r, op) {
					return
				}
			case cWait:
				if !s.doWait(r, op.req+st.reqBase) {
					return
				}
			case cSeg:
				st.ret, st.seg, st.tagBase, st.reqBase = st.pc+1, int32(op.arg), op.tag, op.req
				ops, st.pc = s.p.segs[op.arg], 0
				continue
			default:
				// Collectives must have been expanded; treat as fatal by
				// deadlocking this rank deliberately with a diagnostic op.
				// (Callers run trace.Validate + collectives.Expand first;
				// panicking here would hide the offending op index.)
				st.block = blockedWait
				st.blockReq = -999
				return
			}
			st.pc++
		}
		if st.seg < 0 {
			break
		}
		ops, st.pc, st.seg, st.tagBase, st.reqBase = s.p.code[r], st.ret, -1, 0, 0
	}
	st.block = finished
	s.active--
}

// resume steps rank r past the op it was blocked in — in its stream or
// in a segment, pc counts in either — and advances it.
func (s *Simulator) resume(r int32) {
	s.ranks[r].pc++
	s.advance(r)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

const (
	maxInt64 = int64(^uint64(0) >> 1)
	minInt64 = -maxInt64 - 1
)
