package loggopsim

// The message protocol of one run: eager and rendezvous sends, receive
// posting and (source, tag) matching, waits, and the four arrival
// handlers the run loop (loggopsim.go) dispatches events to. Everything
// here mutates a Simulator and only reads its Program.

import (
	"repro/internal/eventq"
	"repro/internal/netmodel"
	"repro/internal/trace"
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

// eagerSend runs the eager-protocol send path shared by blocking and
// nonblocking sends: extend the CPU by the precompiled send overhead,
// serialize through the node NIC, and schedule the payload arrival.
func (s *Simulator) eagerSend(r int32, st *rankState, op *cop, c *cost) {
	end := st.clock + c.dur
	if end > s.nextNoise[r] {
		end = s.extendSlow(r, st.clock, c.dur)
	}
	if s.profRank != nil {
		p := &s.profRank[r]
		p.work += c.dur
		p.detour += end - st.clock - c.dur
	}
	node := s.p.node[r]
	inj := end
	if s.nic[node] > inj {
		inj = s.nic[node]
	}
	s.nic[node] = inj + c.nicGap
	s.q.Push(eventq.Event{Time: inj + c.transit, Kind: evEagerArrive, Rank: op.peer, A: r, B: c.size, C: op.tag + st.tagBase})
	st.clock = end
}

// startRdv pays the rendezvous send overhead, registers the message and
// schedules its RTS arrival; srcReq is the sender's request id, -1 for
// a blocking send.
func (s *Simulator) startRdv(r int32, st *rankState, op *cop, c *cost, srcReq int32) int32 {
	cpuEnd := s.extend(r, st.clock, c.dur)
	st.clock = cpuEnd
	idx := int32(len(s.msgs))
	s.msgs = append(s.msgs, rdvMsg{src: r, dst: op.peer, tag: op.tag + st.tagBase, size: c.size, srcReq: srcReq, dstSlot: -1})
	s.q.Push(eventq.Event{Time: cpuEnd + c.transit, Kind: evRTSArrive, Rank: op.peer, A: idx})
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
	tag := op.tag + st.tagBase
	if u, ok := s.matchUnexpected(st, op.peer, tag); ok {
		if u.msg < 0 {
			// Eager payload already here: charge receive CPU and go.
			st.clock = s.extend(r, max64(st.clock, u.arr), s.p.pair(u.src, r).RecvCPU(u.size))
			s.res.Messages++
			s.res.BytesMoved += u.size
			return true
		}
		// Rendezvous RTS already here: answer CTS and wait for payload.
		m := &s.msgs[u.msg]
		cts := max64(st.clock, m.rtsATime) + s.p.pair(m.src, r).L + s.p.xl(r, m.src)
		s.q.Push(eventq.Event{Time: cts, Kind: evCTSArrive, Rank: m.src, A: u.msg})
		st.block = blockedRecv
		st.blockMsg = u.msg
		m.dstSlot = -2 // blocking receive, no slot
		return false
	}
	// Nothing here yet: post and block.
	idx := s.addSlot(st, slot{req: -1, peer: op.peer, tag: tag, size: op.arg, isRecv: true, posted: st.clock, active: true})
	st.block = blockedRecv
	st.blockMsg = -1
	st.blockReq = idx // remember which slot the blocking recv owns
	return false
}

// postIrecv posts a nonblocking receive and tries to match immediately.
func (s *Simulator) postIrecv(r int32, op *cop) {
	st := &s.ranks[r]
	tag, req := op.tag+st.tagBase, op.req+st.reqBase
	if u, ok := s.matchUnexpected(st, op.peer, tag); ok {
		if u.msg < 0 {
			s.addSlot(st, slot{req: req, peer: u.src, tag: u.tag, size: u.size, isRecv: true, done: true, ready: u.arr, active: true})
			s.res.Messages++
			s.res.BytesMoved += u.size
			return
		}
		m := &s.msgs[u.msg]
		// Claimed from birth: this slot is bound to the rendezvous
		// payload it just matched and must not match other arrivals.
		idx := s.addSlot(st, slot{req: req, peer: u.src, tag: u.tag, size: m.size, isRecv: true, claimed: true, posted: st.clock, active: true})
		m.dstSlot = idx
		cts := max64(st.clock, m.rtsATime) + s.p.pair(m.src, r).L + s.p.xl(r, m.src)
		s.q.Push(eventq.Event{Time: cts, Kind: evCTSArrive, Rank: m.src, A: u.msg})
		return
	}
	s.addSlot(st, slot{req: req, peer: op.peer, tag: tag, size: op.arg, isRecv: true, posted: st.clock, active: true})
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
		return &s.p.cfg.Net
	}
	return s.p.pair(sl.peer, r)
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
			st.clock = s.extend(dst, max64(st.clock, arr), s.p.pair(src, dst).RecvCPU(size))
			s.res.Messages++
			s.res.BytesMoved += size
			s.resume(dst) // past the blocking recv
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
			s.q.Push(eventq.Event{Time: max64(sl.posted, arr) + s.p.pair(m.src, m.dst).L + s.p.xl(m.dst, m.src), Kind: evCTSArrive, Rank: m.src, A: msgIdx})
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
			s.q.Push(eventq.Event{Time: max64(sl.posted, arr) + s.p.pair(m.src, m.dst).L + s.p.xl(m.dst, m.src), Kind: evCTSArrive, Rank: m.src, A: msgIdx})
			return
		}
	}
	st.unexpected = append(st.unexpected, unexp{src: m.src, tag: m.tag, msg: msgIdx, size: m.size, arr: arr})
}

// ctsArrive resumes the sender of a rendezvous message.
func (s *Simulator) ctsArrive(msgIdx int32, arr int64) {
	m := &s.msgs[msgIdx]
	st := &s.ranks[m.src]
	p := s.p.pair(m.src, m.dst)
	if m.srcReq < 0 {
		// Blocking send: charge payload CPU now (sender is blocked, CPU
		// idle since the RTS was issued).
		cpuEnd := s.extend(m.src, max64(st.clock, arr), p.SendCPU(m.size))
		inj := s.inject(m.src, cpuEnd, p, m.size)
		s.q.Push(eventq.Event{Time: inj + p.Transit(m.size) + s.p.xl(m.src, m.dst), Kind: evDataArrive, Rank: m.dst, A: msgIdx})
		st.clock = cpuEnd
		s.resume(m.src) // past the blocking send
		return
	}
	// Nonblocking send: NIC-only injection (see package comment).
	inj := s.inject(m.src, arr, p, m.size)
	s.q.Push(eventq.Event{Time: inj + p.Transit(m.size) + s.p.xl(m.src, m.dst), Kind: evDataArrive, Rank: m.dst, A: msgIdx})
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
		st.clock = s.extend(m.dst, max64(st.clock, arr), s.p.pair(m.src, m.dst).RecvCPU(m.size))
		s.resume(m.dst) // past the blocking recv
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
			s.resume(r)
		}
	case blockedWaitAll:
		if s.doWaitAll(r) {
			s.resume(r)
		}
	}
}
