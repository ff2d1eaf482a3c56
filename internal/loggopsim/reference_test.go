package loggopsim

// A reference LogGOPS interpreter, test-only: the independent statement of
// docs/MODEL.md §1–2 that FuzzEngineMatchesReference holds the engine to. It
// walks *trace.Trace ops directly — no Program, compiled op, cost table or
// segment — keeps its events in one sorted slice, spells the o/g/G/O/L/S
// arithmetic out, matches a message to the earliest-posted receive that
// names its source and tag, and draws one gap at a time.

import (
	"slices"
	"sort"

	"repro/internal/eventq"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/trace"
)

type (
	refMsg struct {
		src, dst, tag int32
		size, arr     int64 // arr: when the eager payload or the RTS reached dst
		eager         bool
		sender, slot  *refSlot // the send's request and, once matched, the receive's
	}
	// refSlot is a request, or the blocking send or receive a rank is in (req -1).
	refSlot struct {
		req, peer, tag      int32
		size, ready, posted int64
		recv, done, claimed bool // claimed: bound to a rendezvous payload still in flight
	}
	refRank struct {
		pc          int
		clock       int64
		waitOn      *refSlot   // the request its Wait is blocked on
		waitAll     bool       // blocked in a WaitAll
		slots       []*refSlot // requests, by slot index; nil is free
		open        []*refSlot // posted, unmatched receives, blocking ones too, in post order
		unexpected  []int      // arrived, unmatched messages, in arrival order
		src         *rng.Source
		next        int64  // its node's CE stream's next arrival,
		count, arrs uint64 // arrivals so far and process state
	}
	refSim struct {
		tr     *trace.Trace
		cfg    Config
		rpn    int32
		noise  *noise.Config // nil: none; else Seed, Arrivals, Duration and RanksPerNode, on every rank
		ranks  []refRank
		nic    []int64        // per node: when the NIC can inject next
		events []eventq.Event // sorted by (Time, push order); A is the message
		msgs   []refMsg
		res    Result
	}
)

// referenceRun interprets the trace under cfg and the CE process nm.
func referenceRun(tr *trace.Trace, cfg Config, nm *noise.Config) *Result {
	n := tr.NumRanks()
	s := &refSim{tr: tr, cfg: cfg, rpn: int32(max(cfg.RanksPerNode, 1)), noise: nm,
		ranks: make([]refRank, n), nic: make([]int64, n)}
	prof := &Profile{PerRankWork: make([]int64, n), PerRankDetour: make([]int64, n), PerRankWait: make([]int64, n)}
	s.res.FinishTimes, s.res.Profile = make([]int64, n), prof
	for r := range s.ranks {
		s.run(int32(r))
	}
	for ; len(s.events) > 0; s.res.Events++ {
		e := s.events[0]
		s.events = s.events[1:]
		s.handle(e.Kind, int(e.A), e.Time)
	}
	for r := range s.ranks {
		s.res.FinishTimes[r] = s.ranks[r].clock
		s.res.Makespan = max(s.res.Makespan, s.ranks[r].clock)
		s.res.Deadlocked = s.res.Deadlocked || s.ranks[r].pc < len(tr.Ops[r])
		prof.Work, prof.Detour, prof.Wait = prof.Work+prof.PerRankWork[r], prof.Detour+prof.PerRankDetour[r], prof.Wait+prof.PerRankWait[r]
	}
	return &s.res
}

// push files an event behind every event at or before its time.
func (s *refSim) push(kind int32, msg int, time int64) {
	i := sort.Search(len(s.events), func(i int) bool { return s.events[i].Time > time })
	s.events = slices.Insert(s.events, i, eventq.Event{Time: time, Kind: kind, A: int32(msg)})
}

// perByte is LogGOPS's (s-1) per-byte charge truncated to ns; msgCPU is
// o + (s-1)O, what a message costs the CPU on either side.
func perByte(rate float64, size int64) int64     { return int64(rate * float64(max(size-1, 0))) }
func msgCPU(p netmodel.Params, size int64) int64 { return p.O + perByte(p.OPerByte, size) }

// busy runs dur of CPU work on rank r from start (or its clock, if later;
// the gap is waiting). A CE arriving inside the window, not before it,
// stretches the window, which can catch further arrivals.
func (s *refSim) busy(r int32, start, dur int64) {
	st, prof := &s.ranks[r], s.res.Profile
	start = max(start, st.clock)
	end := start + dur
	if nm := s.noise; nm != nil {
		if st.src == nil {
			st.src = rng.NewStream(nm.Seed, uint64(r/int32(max(nm.RanksPerNode, 1))))
			st.next = nm.Arrivals.NextGap(st.src, &st.arrs)
		}
		for ; st.next < end; st.count++ {
			if st.next >= start {
				end += nm.Duration.Sample(st.count)
			}
			st.next += nm.Arrivals.NextGap(st.src, &st.arrs)
		}
	}
	prof.PerRankWait[r] += start - st.clock
	prof.PerRankWork[r] += dur
	prof.PerRankDetour[r] += end - start - dur
	st.clock = end
}

// inject queues a payload on its sender's node NIC from time ready; it
// lands L + (s-1)G after the NIC takes it.
func (s *refSim) inject(kind int32, mi int, ready int64) int64 {
	m := &s.msgs[mi]
	p, node := s.cfg.Net, m.src/s.rpn
	inj := max(ready, s.nic[node])
	s.nic[node] = inj + p.Gap + perByte(p.GPerByte, m.size)
	s.push(kind, mi, inj+p.L+perByte(p.GPerByte, m.size))
	return inj
}

// addSlot takes the lowest free slot index.
func (st *refRank) addSlot(sl *refSlot) {
	if i := slices.Index(st.slots, nil); i >= 0 {
		st.slots[i] = sl
	} else {
		st.slots = append(st.slots, sl)
	}
}

func (sl *refSlot) matches(m *refMsg) bool { return sl.peer == m.src && sl.tag == m.tag }

// complete frees done request i at a Wait or WaitAll: a send costs only
// the wait for its buffer, a receive its o + (s-1)O besides.
func (s *refSim) complete(r int32, i int) {
	sl, cost := s.ranks[r].slots[i], int64(0)
	s.ranks[r].slots[i] = nil
	if sl.recv {
		cost = msgCPU(s.cfg.Net, sl.size)
	}
	s.busy(r, sl.ready, cost)
}

// run executes rank r's ops until one blocks or the list ends.
func (s *refSim) run(r int32) {
	st := &s.ranks[r]
	for ops := s.tr.Ops[r]; st.pc < len(ops); st.pc++ {
		switch op := ops[st.pc]; op.Kind {
		case trace.OpCalc:
			s.busy(r, st.clock, op.Dur)
		case trace.OpSend, trace.OpIsend:
			p, mi := s.cfg.Net, len(s.msgs)
			sl := &refSlot{req: -1, peer: op.Peer, tag: op.Tag, size: op.Size}
			s.msgs = append(s.msgs, refMsg{src: r, dst: op.Peer, tag: op.Tag, size: op.Size, eager: op.Size <= p.S, sender: sl})
			if op.Size <= p.S { // o + (s-1)O of CPU, then the NIC; the buffer is free at once
				s.busy(r, st.clock, msgCPU(p, op.Size))
				s.inject(evEagerArrive, mi, st.clock)
				sl.done, sl.ready = true, st.clock
			} else { // o of CPU, then an RTS that bypasses the NIC
				s.busy(r, st.clock, p.O)
				s.push(evRTSArrive, mi, st.clock+p.L)
			}
			if op.Kind == trace.OpIsend {
				sl.req = op.Req
				st.addSlot(sl)
			} else if op.Size > p.S {
				return // a blocking rendezvous send waits for the CTS
			}
		case trace.OpRecv, trace.OpIrecv:
			sl := &refSlot{req: -1, peer: op.Peer, tag: op.Tag, size: op.Size, recv: true, posted: st.clock}
			if op.Kind == trace.OpIrecv {
				sl.req = op.Req
				st.addSlot(sl)
			}
			if i := slices.IndexFunc(st.unexpected, func(mi int) bool { return sl.matches(&s.msgs[mi]) }); i >= 0 {
				mi := st.unexpected[i] // the earliest arrival that fits
				st.unexpected = slices.Delete(st.unexpected, i, i+1)
				s.match(sl, mi)
			} else {
				st.open = append(st.open, sl)
			}
			if op.Kind == trace.OpRecv && !sl.done {
				return // a blocking receive waits for its match, or for the payload
			}
		case trace.OpWait:
			i := slices.IndexFunc(st.slots, func(sl *refSlot) bool { return sl != nil && sl.req == op.Req })
			if !st.slots[i].done { // Validate saw to it that the request is outstanding
				st.waitOn = st.slots[i]
				return
			}
			s.complete(r, i)
		case trace.OpWaitAll:
			if slices.ContainsFunc(st.slots, func(sl *refSlot) bool { return sl != nil && !sl.done }) {
				st.waitAll = true
				return
			}
			for i, sl := range st.slots {
				if sl != nil {
					s.complete(r, i)
				}
			}
		}
	}
}

// match binds message mi, whose payload or RTS is at its destination, to
// receive sl at the later of arrival and posting: an eager payload completes
// it then, an RTS claims it and is answered by a CTS that takes L to return.
func (s *refSim) match(sl *refSlot, mi int) {
	m := &s.msgs[mi]
	m.slot, sl.size = sl, m.size
	at := max(m.arr, sl.posted)
	if !m.eager {
		sl.claimed = true
		s.push(evCTSArrive, mi, at+s.cfg.Net.L)
		return
	}
	s.res.Messages++
	s.res.BytesMoved += m.size
	sl.done, sl.ready = true, at
	if sl.req < 0 {
		s.busy(m.dst, m.arr, msgCPU(s.cfg.Net, m.size))
	}
}

// finish marks a request done and runs its rank on if it was blocked on it:
// past the blocking op it stands for (req -1), or into the Wait or WaitAll again.
func (s *refSim) finish(r int32, sl *refSlot, ready int64) {
	st := &s.ranks[r]
	sl.done, sl.ready = true, ready
	switch {
	case sl.req < 0:
		st.pc++
	case st.waitAll || st.waitOn == sl:
		st.waitAll, st.waitOn = false, nil
	default:
		return
	}
	s.run(r)
}

func (s *refSim) handle(kind int32, mi int, now int64) {
	m := &s.msgs[mi]
	switch kind {
	case evEagerArrive, evRTSArrive:
		// The earliest-posted open receive that names its source and tag.
		m.arr = now
		st := &s.ranks[m.dst]
		i := slices.IndexFunc(st.open, func(sl *refSlot) bool { return sl.matches(m) })
		if i < 0 {
			st.unexpected = append(st.unexpected, mi)
			return
		}
		sl := st.open[i]
		st.open = slices.Delete(st.open, i, i+1)
		if s.match(sl, mi); sl.done {
			s.finish(m.dst, sl, sl.ready)
		}
	case evCTSArrive:
		ready := now          // a nonblocking send's payload is moved by the NIC alone,
		if m.sender.req < 0 { // a blocking one's costs its CPU o + (s-1)O first
			s.busy(m.src, now, msgCPU(s.cfg.Net, m.size))
			ready = s.ranks[m.src].clock
		}
		s.finish(m.src, m.sender, s.inject(evDataArrive, mi, ready))
	case evDataArrive:
		s.res.Messages++
		s.res.BytesMoved += m.size
		if m.slot.req < 0 {
			s.busy(m.dst, now, msgCPU(s.cfg.Net, m.size))
		}
		s.finish(m.dst, m.slot, now)
	}
}
