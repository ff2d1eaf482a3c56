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
package loggopsim

import (
	"fmt"

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

// rdvMsg tracks a rendezvous message through its handshake.
type rdvMsg struct {
	src, dst  int32
	tag       int32
	size      int64
	srcReq    int32 // sender's request id, or -1 for a blocking send
	dstSlot   int32 // receiver's slot index once matched, or -1
	rtsATime  int64 // RTS arrival time at receiver
	dataATime int64 // payload arrival time at receiver
}

// slot is a posted receive or an outstanding send request on one rank.
type slot struct {
	req     int32 // request id; -1 for a blocking recv
	peer    int32 // expected source (AnySource allowed) or send peer
	tag     int32
	size    int64
	isRecv  bool
	done    bool  // data ready (recv) or buffer released (send)
	claimed bool  // recv slot matched to an in-flight rendezvous payload
	ready   int64 // time the slot became done
	posted  int64 // logical time the receive was posted
	active  bool  // still occupied
}

// unexp is an arrived-but-unmatched message (eager payload or RTS).
type unexp struct {
	src  int32
	tag  int32
	msg  int32 // rendezvous message index, or -1 for eager
	size int64
	arr  int64
}

// cop is a compiled trace operation. NewSimulator resolves everything
// that does not depend on simulated time — the eager/rendezvous
// protocol decision, the LogGOPS send CPU / NIC gap / transit costs
// (including the per-pair extra latency), and the parameter set — so
// the replay loop does only integer arithmetic: no floating-point
// byte-cost math, no interface or function-valued calls, no protocol
// branches. The arithmetic is the same as the uncompiled path's,
// evaluated once; results are bit-identical.
type cop struct {
	dur     int64 // calc duration | eager send CPU o+(s-1)O | rendezvous o
	size    int64 // message bytes
	nicGap  int64 // eager send: NIC occupancy g+(s-1)G
	transit int64 // eager send: L+(s-1)G+xl | rendezvous send: RTS flight L+xl
	peer    int32
	tag     int32
	req     int32
	kind    uint8 // cop kinds below
}

// Compiled op kinds, ordered hottest-first.
const (
	cCalc uint8 = iota
	cEagerIsend
	cIrecv
	cWaitAll
	cEagerSend
	cRdvIsend
	cRdvSend
	cRecv
	cWait
	cBad // unexpanded collective: deliberate diagnostic deadlock
)

type rankState struct {
	cops       []cop
	pc         int
	clock      int64
	block      blockKind
	blockReq   int32 // for blockedWait
	blockMsg   int32 // rendezvous msg index for blockedSendCTS / blockedRecv data wait
	slots      []slot
	unexpected []unexp
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

// postedEnt is one matchable posted receive: its slot index and match key.
type postedEnt struct {
	idx  int32
	peer int32
	tag  int32
}

// postedInsert adds a posted receive to the sorted matchable-irecv list.
func (st *rankState) postedInsert(e postedEnt) {
	p := st.posted
	if len(p) == 0 || e.idx > p[len(p)-1].idx {
		st.posted = append(p, e)
		return
	}
	lo, hi := 0, len(p)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p[mid].idx < e.idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	p = append(p, postedEnt{})
	copy(p[lo+1:], p[lo:])
	p[lo] = e
	st.posted = p
}

// postedRemoveAt removes the list entry at position k.
func (st *rankState) postedRemoveAt(k int) {
	st.posted = append(st.posted[:k], st.posted[k+1:]...)
}

// freeSlot releases a slot, keeping the lowest-free bound and the
// outstanding-request count in step.
func (st *rankState) freeSlot(idx int32) {
	sl := &st.slots[idx]
	if !sl.done {
		st.pending--
	}
	sl.active = false
	if idx < st.freeMin {
		st.freeMin = idx
	}
}

// Simulator is a reusable simulation engine bound to one expanded
// trace. Construction (NewSimulator) validates the configuration and
// preallocates the event queue, per-rank CPU/NIC timelines, match
// queues and profile counters; Run then replays the trace as many
// times as needed, reusing that state across calls. This makes the
// repeated-run hot path — the paper averages >= 8 seeded runs per
// (workload, system, scenario) point — nearly allocation-free: only
// the per-run Result (finish times and, when enabled, the profile)
// is freshly allocated so callers may retain results across runs.
//
// A Simulator is not safe for concurrent use; run one per goroutine.
// Results are bit-identical to a fresh Simulate call with the same
// trace, configuration and noise model.
type Simulator struct {
	cfg    Config
	net    netmodel.Params
	local  *netmodel.Params
	rpn    int32   // ranks per node
	nic    []int64 // per-node NIC-free time
	node   []int32 // rank -> node, so the hot path never divides
	extraL func(src, dst int32) int64
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

// NewSimulator validates cfg and builds a reusable simulator for the
// trace. The trace must be collective-free (see collectives.Expand)
// and is read, never mutated, so several Simulators may share it.
func NewSimulator(tr *trace.Trace, cfg Config) (*Simulator, error) {
	n := tr.NumRanks()
	if n == 0 {
		return nil, trace.ErrEmptyTrace
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if cfg.LocalNet != nil {
		if err := cfg.LocalNet.Validate(); err != nil {
			return nil, err
		}
	}
	rpn := cfg.RanksPerNode
	if rpn == 0 {
		rpn = 1
	}
	if rpn < 0 {
		return nil, fmt.Errorf("loggopsim: ranks per node must be positive, got %d", rpn)
	}
	s := &Simulator{
		cfg:       cfg,
		net:       cfg.Net,
		local:     cfg.LocalNet,
		rpn:       int32(rpn),
		nic:       make([]int64, (n+rpn-1)/rpn),
		node:      make([]int32, n),
		ranks:     make([]rankState, n),
		q:         eventq.New(1024),
		nextNoise: make([]int64, n),
		extraL:    cfg.ExtraLatency,
	}
	for r := range s.node {
		s.node[r] = int32(r) / s.rpn
	}
	if cfg.Profile {
		s.profRank = make([]rankProf, n)
	}
	for r := range s.ranks {
		s.ranks[r].cops = s.compile(int32(r), tr.Ops[r])
	}
	return s, nil
}

// compile lowers one rank's trace into compiled ops (see cop).
func (s *Simulator) compile(r int32, ops []trace.Op) []cop {
	cs := make([]cop, len(ops))
	for i := range ops {
		op := &ops[i]
		c := &cs[i]
		c.peer, c.tag, c.req, c.size = op.Peer, op.Tag, op.Req, op.Size
		switch op.Kind {
		case trace.OpCalc:
			c.kind, c.dur = cCalc, op.Dur
		case trace.OpSend, trace.OpIsend:
			p := s.pair(r, op.Peer)
			x := s.xl(r, op.Peer)
			if p.Eager(op.Size) {
				c.dur = p.SendCPU(op.Size)
				c.nicGap = p.NICGap(op.Size)
				c.transit = p.Transit(op.Size) + x
				c.kind = cEagerSend
				if op.Kind == trace.OpIsend {
					c.kind = cEagerIsend
				}
			} else {
				c.dur = p.O
				c.transit = p.L + x
				c.kind = cRdvSend
				if op.Kind == trace.OpIsend {
					c.kind = cRdvIsend
				}
			}
		case trace.OpRecv:
			c.kind = cRecv
		case trace.OpIrecv:
			c.kind = cIrecv
		case trace.OpWait:
			c.kind = cWait
		case trace.OpWaitAll:
			c.kind = cWaitAll
		default:
			c.kind = cBad
		}
	}
	return cs
}

// Ranks returns the number of ranks the simulator was built for.
func (s *Simulator) Ranks() int { return len(s.ranks) }

// reset restores the preallocated state to time zero, keeping every
// slice's capacity, and installs the noise model for the next run.
func (s *Simulator) reset(nm noise.Model) {
	if nm == nil {
		nm = s.cfg.Noise
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
		st.pc = 0
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
	if s.cfg.Profile {
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
	maxTime := s.cfg.MaxTime
	for s.q.Len() > 0 {
		e := s.q.Pop()
		s.res.Events++
		if maxTime > 0 && e.Time > maxTime {
			s.res.TimedOut = true
			s.finishResult()
			out := s.res
			return &out, fmt.Errorf("loggopsim: horizon %dns exceeded at t=%dns", s.cfg.MaxTime, e.Time)
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
			s.active, s.firstBlocked(), s.ranks[s.firstBlocked()].pc)
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

// nodeOf maps a rank to its node.
func (s *Simulator) nodeOf(rank int32) int32 { return s.node[rank] }

// pair returns the parameter set for a message between two ranks:
// LocalNet for co-located ranks when configured, Net otherwise.
func (s *Simulator) pair(a, b int32) *netmodel.Params {
	if s.local != nil && s.node[a] == s.node[b] {
		return s.local
	}
	return &s.net
}

// xl returns the configured extra latency between two ranks, zero when
// none is configured.
func (s *Simulator) xl(src, dst int32) int64 {
	if s.extraL == nil {
		return 0
	}
	return s.extraL(src, dst)
}

// inject reserves the sender's node NIC for a message of size bytes
// that is ready at time ready, and returns the injection time.
func (s *Simulator) inject(rank int32, ready int64, p *netmodel.Params, size int64) int64 {
	node := s.node[rank]
	inj := ready
	if s.nic[node] > inj {
		inj = s.nic[node]
	}
	s.nic[node] = inj + p.NICGap(size)
	return inj
}

// advance executes ops on rank r until it blocks or finishes. The hot
// cases inline the noise-elided CPU extension (see extend) so the
// common op costs a handful of integer instructions.
func (s *Simulator) advance(r int32) {
	st := &s.ranks[r]
	st.block = notBlocked
	cops := st.cops
	for st.pc < len(cops) {
		op := &cops[st.pc]
		switch op.kind {
		case cCalc:
			end := st.clock + op.dur
			if end > s.nextNoise[r] {
				end = s.extendSlow(r, st.clock, op.dur)
			}
			if s.profRank != nil {
				p := &s.profRank[r]
				p.work += op.dur
				p.detour += end - st.clock - op.dur
			}
			st.clock = end
		case cEagerIsend:
			s.eagerSend(r, st, op)
			s.addSlot(st, slot{req: op.req, peer: op.peer, tag: op.tag, size: op.size, done: true, ready: st.clock, active: true})
		case cIrecv:
			s.postIrecv(r, op)
		case cWaitAll:
			if !s.doWaitAll(r) {
				return
			}
		case cEagerSend:
			s.eagerSend(r, st, op)
		case cRdvIsend:
			s.startRdv(r, st, op, op.req)
			s.addSlot(st, slot{req: op.req, peer: op.peer, tag: op.tag, size: op.size, active: true})
		case cRdvSend:
			// Rendezvous blocking send: pay o, emit RTS, block until CTS.
			idx := s.startRdv(r, st, op, -1)
			st.block = blockedSendCTS
			st.blockMsg = idx
			return
		case cRecv:
			if !s.startRecv(r, op) {
				return
			}
		case cWait:
			if !s.doWait(r, op.req) {
				return
			}
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
	st.block = finished
	s.active--
}

// eagerSend runs the eager-protocol send path shared by blocking and
// nonblocking sends: extend the CPU by the precompiled send overhead,
// serialize through the node NIC, and schedule the payload arrival.
func (s *Simulator) eagerSend(r int32, st *rankState, op *cop) {
	end := st.clock + op.dur
	if end > s.nextNoise[r] {
		end = s.extendSlow(r, st.clock, op.dur)
	}
	if s.profRank != nil {
		p := &s.profRank[r]
		p.work += op.dur
		p.detour += end - st.clock - op.dur
	}
	node := s.node[r]
	inj := end
	if s.nic[node] > inj {
		inj = s.nic[node]
	}
	s.nic[node] = inj + op.nicGap
	s.q.Push(eventq.Event{Time: inj + op.transit, Kind: evEagerArrive, Rank: op.peer, A: r, B: op.size, C: op.tag})
	st.clock = end
}

// startRdv pays the rendezvous send overhead, registers the message and
// schedules its RTS arrival; srcReq is the sender's request id, -1 for
// a blocking send.
func (s *Simulator) startRdv(r int32, st *rankState, op *cop, srcReq int32) int32 {
	cpuEnd := s.extend(r, st.clock, op.dur)
	st.clock = cpuEnd
	idx := int32(len(s.msgs))
	s.msgs = append(s.msgs, rdvMsg{src: r, dst: op.peer, tag: op.tag, size: op.size, srcReq: srcReq, dstSlot: -1})
	s.q.Push(eventq.Event{Time: cpuEnd + op.transit, Kind: evRTSArrive, Rank: op.peer, A: idx})
	return idx
}

func (s *Simulator) addSlot(st *rankState, sl slot) int32 {
	// Reuse the lowest-index inactive slot if available to bound
	// growth; freeMin makes the scan resume where free slots can
	// first appear instead of from zero.
	var idx int32 = -1
	for i := int(st.freeMin); i < len(st.slots); i++ {
		if !st.slots[i].active {
			st.slots[i] = sl
			idx = int32(i)
			break
		}
	}
	if idx < 0 {
		st.slots = append(st.slots, sl)
		idx = int32(len(st.slots) - 1)
	}
	st.freeMin = idx + 1
	if !sl.done {
		st.pending++
		if sl.isRecv && !sl.claimed && sl.req >= 0 {
			st.postedInsert(postedEnt{idx: idx, peer: sl.peer, tag: sl.tag})
		}
	}
	return idx
}

// matchUnexpected finds the earliest-arrived unexpected message matching
// (peer, tag) and removes it.
func (s *Simulator) matchUnexpected(st *rankState, peer, tag int32) (unexp, bool) {
	for i := range st.unexpected {
		u := st.unexpected[i]
		if (peer == trace.AnySource || peer == u.src) && (tag == trace.AnyTag || tag == u.tag) {
			st.unexpected = append(st.unexpected[:i], st.unexpected[i+1:]...)
			return u, true
		}
	}
	return unexp{}, false
}

// startRecv executes a blocking receive. Returns false when blocked.
func (s *Simulator) startRecv(r int32, op *cop) bool {
	st := &s.ranks[r]
	if u, ok := s.matchUnexpected(st, op.peer, op.tag); ok {
		if u.msg < 0 {
			// Eager payload already here: charge receive CPU and go.
			st.clock = s.extend(r, max64(st.clock, u.arr), s.pair(u.src, r).RecvCPU(u.size))
			s.res.Messages++
			s.res.BytesMoved += u.size
			return true
		}
		// Rendezvous RTS already here: answer CTS and wait for payload.
		m := &s.msgs[u.msg]
		cts := max64(st.clock, m.rtsATime) + s.pair(m.src, r).L + s.xl(r, m.src)
		s.q.Push(eventq.Event{Time: cts, Kind: evCTSArrive, Rank: m.src, A: u.msg})
		st.block = blockedRecv
		st.blockMsg = u.msg
		m.dstSlot = -2 // blocking receive, no slot
		return false
	}
	// Nothing here yet: post and block.
	idx := s.addSlot(st, slot{req: -1, peer: op.peer, tag: op.tag, size: op.size, isRecv: true, posted: st.clock, active: true})
	st.block = blockedRecv
	st.blockMsg = -1
	st.blockReq = idx // remember which slot the blocking recv owns
	return false
}

// postIrecv posts a nonblocking receive and tries to match immediately.
func (s *Simulator) postIrecv(r int32, op *cop) {
	st := &s.ranks[r]
	if u, ok := s.matchUnexpected(st, op.peer, op.tag); ok {
		if u.msg < 0 {
			s.addSlot(st, slot{req: op.req, peer: u.src, tag: u.tag, size: u.size, isRecv: true, done: true, ready: u.arr, active: true})
			s.res.Messages++
			s.res.BytesMoved += u.size
			return
		}
		m := &s.msgs[u.msg]
		// Claimed from birth: this slot is bound to the rendezvous
		// payload it just matched and must not match other arrivals.
		idx := s.addSlot(st, slot{req: op.req, peer: u.src, tag: u.tag, size: m.size, isRecv: true, claimed: true, posted: st.clock, active: true})
		m.dstSlot = idx
		cts := max64(st.clock, m.rtsATime) + s.pair(m.src, r).L + s.xl(r, m.src)
		s.q.Push(eventq.Event{Time: cts, Kind: evCTSArrive, Rank: m.src, A: u.msg})
		return
	}
	s.addSlot(st, slot{req: op.req, peer: op.peer, tag: op.tag, size: op.size, isRecv: true, posted: st.clock, active: true})
}

// findSlotByReq returns the index of the active slot with the request id.
func findSlotByReq(st *rankState, req int32) int32 {
	for i := range st.slots {
		if st.slots[i].active && st.slots[i].req == req {
			return int32(i)
		}
	}
	return -1
}

// doWait completes a single request. Returns false when blocked.
func (s *Simulator) doWait(r int32, req int32) bool {
	st := &s.ranks[r]
	idx := findSlotByReq(st, req)
	if idx < 0 {
		// Wait on an unknown request: trace validation prevents this;
		// treat as satisfied to avoid wedging the run.
		return true
	}
	sl := &st.slots[idx]
	if !sl.done {
		st.block = blockedWait
		st.blockReq = req
		return false
	}
	if sl.isRecv {
		st.clock = s.extend(r, max64(st.clock, sl.ready), s.recvParams(sl, r).RecvCPU(sl.size))
	} else {
		s.waitUntil(r, sl.ready)
	}
	st.freeSlot(idx)
	return true
}

// waitUntil advances a rank's clock to a completion time, accounting
// the gap as blocked time.
func (s *Simulator) waitUntil(r int32, till int64) {
	st := &s.ranks[r]
	if till <= st.clock {
		return
	}
	if s.prof != nil {
		s.profRank[r].wait += till - st.clock
	}
	st.clock = till
}

// recvParams picks the parameter set for a completed receive slot; a
// wildcard-source slot that matched a local sender keeps Net (the
// conservative choice, and wildcards are rare in generated traces).
func (s *Simulator) recvParams(sl *slot, r int32) *netmodel.Params {
	if sl.peer == trace.AnySource {
		return &s.net
	}
	return s.pair(sl.peer, r)
}

// doWaitAll completes all outstanding requests. Returns false when any
// is still pending.
func (s *Simulator) doWaitAll(r int32) bool {
	st := &s.ranks[r]
	// pending counts active-and-not-done slots; this check runs on
	// every completion event while the rank is blocked here, so it
	// must not rescan the slot table.
	if st.pending > 0 {
		st.block = blockedWaitAll
		return false
	}
	for i := range st.slots {
		sl := &st.slots[i]
		if !sl.active {
			continue
		}
		if sl.isRecv {
			st.clock = s.extend(r, max64(st.clock, sl.ready), s.recvParams(sl, r).RecvCPU(sl.size))
		} else {
			s.waitUntil(r, sl.ready)
		}
		sl.active = false
	}
	st.freeMin = 0
	return true
}

// eagerArrive delivers an eager payload at dst.
func (s *Simulator) eagerArrive(dst int32, src int32, size int64, tag int32, arr int64) {
	st := &s.ranks[dst]
	// A blocked receive waiting for a match?
	if st.block == blockedRecv && st.blockMsg == -1 {
		slIdx := st.blockReq
		sl := &st.slots[slIdx]
		if (sl.peer == trace.AnySource || sl.peer == src) && (sl.tag == trace.AnyTag || sl.tag == tag) {
			st.freeSlot(slIdx)
			st.clock = s.extend(dst, max64(st.clock, arr), s.pair(src, dst).RecvCPU(size))
			s.res.Messages++
			s.res.BytesMoved += size
			st.pc++ // past the blocking recv
			s.advance(dst)
			return
		}
	}
	// A posted irecv? st.posted holds exactly the matchable candidates
	// in ascending slot order — the order the full slot scan visited.
	for k := 0; k < len(st.posted); k++ {
		pe := &st.posted[k]
		if (pe.peer == trace.AnySource || pe.peer == src) &&
			(pe.tag == trace.AnyTag || pe.tag == tag) {
			sl := &st.slots[pe.idx]
			sl.done = true
			sl.ready = max64(arr, sl.posted)
			sl.size = size
			st.pending--
			st.postedRemoveAt(k)
			s.res.Messages++
			s.res.BytesMoved += size
			s.maybeUnblockWait(dst, sl.req)
			return
		}
	}
	st.unexpected = append(st.unexpected, unexp{src: src, tag: tag, msg: -1, size: size, arr: arr})
}

// rtsArrive processes a rendezvous request at the destination.
func (s *Simulator) rtsArrive(msgIdx int32, arr int64) {
	m := &s.msgs[msgIdx]
	m.rtsATime = arr
	st := &s.ranks[m.dst]
	// Blocking receive waiting?
	if st.block == blockedRecv && st.blockMsg == -1 {
		slIdx := st.blockReq
		sl := &st.slots[slIdx]
		if (sl.peer == trace.AnySource || sl.peer == m.src) && (sl.tag == trace.AnyTag || sl.tag == m.tag) {
			st.freeSlot(slIdx)
			m.dstSlot = -2
			st.blockMsg = msgIdx
			s.q.Push(eventq.Event{Time: max64(sl.posted, arr) + s.pair(m.src, m.dst).L + s.xl(m.dst, m.src), Kind: evCTSArrive, Rank: m.src, A: msgIdx})
			return
		}
	}
	// Posted irecv?
	for k := 0; k < len(st.posted); k++ {
		pe := &st.posted[k]
		if (pe.peer == trace.AnySource || pe.peer == m.src) &&
			(pe.tag == trace.AnyTag || pe.tag == m.tag) {
			i := pe.idx
			sl := &st.slots[i]
			m.dstSlot = i
			sl.size = m.size
			// Claim the slot: it now belongs to this rendezvous payload
			// and must not match further arrivals. (The pre-overhaul
			// scan left it matchable until the payload landed, letting a
			// same-(source,tag) eager message hijack an RTS-matched
			// request; expanded traces use unique per-instance tags, so
			// figure outputs are unaffected.)
			sl.claimed = true
			st.postedRemoveAt(k)
			s.q.Push(eventq.Event{Time: max64(sl.posted, arr) + s.pair(m.src, m.dst).L + s.xl(m.dst, m.src), Kind: evCTSArrive, Rank: m.src, A: msgIdx})
			return
		}
	}
	st.unexpected = append(st.unexpected, unexp{src: m.src, tag: m.tag, msg: msgIdx, size: m.size, arr: arr})
}

// ctsArrive resumes the sender of a rendezvous message.
func (s *Simulator) ctsArrive(msgIdx int32, arr int64) {
	m := &s.msgs[msgIdx]
	st := &s.ranks[m.src]
	p := s.pair(m.src, m.dst)
	if m.srcReq < 0 {
		// Blocking send: charge payload CPU now (sender is blocked, CPU
		// idle since the RTS was issued).
		cpuEnd := s.extend(m.src, max64(st.clock, arr), p.SendCPU(m.size))
		inj := s.inject(m.src, cpuEnd, p, m.size)
		s.q.Push(eventq.Event{Time: inj + p.Transit(m.size) + s.xl(m.src, m.dst), Kind: evDataArrive, Rank: m.dst, A: msgIdx})
		st.clock = cpuEnd
		st.pc++ // past the blocking send
		s.advance(m.src)
		return
	}
	// Nonblocking send: NIC-only injection (see package comment).
	inj := s.inject(m.src, arr, p, m.size)
	s.q.Push(eventq.Event{Time: inj + p.Transit(m.size) + s.xl(m.src, m.dst), Kind: evDataArrive, Rank: m.dst, A: msgIdx})
	idx := findSlotByReq(st, m.srcReq)
	if idx >= 0 {
		st.slots[idx].done = true
		st.slots[idx].ready = inj
		st.pending--
		s.maybeUnblockWait(m.src, m.srcReq)
	}
}

// dataArrive delivers a rendezvous payload.
func (s *Simulator) dataArrive(msgIdx int32, arr int64) {
	m := &s.msgs[msgIdx]
	m.dataATime = arr
	st := &s.ranks[m.dst]
	s.res.Messages++
	s.res.BytesMoved += m.size
	if m.dstSlot == -2 {
		// Blocking receive: complete it.
		st.clock = s.extend(m.dst, max64(st.clock, arr), s.pair(m.src, m.dst).RecvCPU(m.size))
		st.pc++ // past the blocking recv
		s.advance(m.dst)
		return
	}
	sl := &st.slots[m.dstSlot]
	sl.done = true
	sl.ready = arr
	st.pending--
	s.maybeUnblockWait(m.dst, sl.req)
}

// maybeUnblockWait resumes a rank blocked in Wait/WaitAll if the newly
// completed request satisfies it.
func (s *Simulator) maybeUnblockWait(r int32, req int32) {
	st := &s.ranks[r]
	switch st.block {
	case blockedWait:
		if st.blockReq != req {
			return
		}
		if s.doWait(r, req) {
			st.pc++
			s.advance(r)
		}
	case blockedWaitAll:
		if s.doWaitAll(r) {
			st.pc++
			s.advance(r)
		}
	}
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
