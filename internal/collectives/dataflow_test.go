package collectives

import (
	"fmt"

	"repro/internal/trace"
)

// This file implements a small message-passing interpreter used by the
// tests to verify that expanded collective schedules move information
// correctly: every message carries the sender's current "knowledge set"
// (the set of ranks whose contribution it has absorbed), and receivers
// union it in. A correct allreduce must leave every rank with the full
// set; a correct broadcast must deliver the root's token everywhere; and
// so on. This checks exactly the dependency structure the simulator
// relies on for delay propagation.

type knowledge []uint64

func newKnowledge(n int) knowledge { return make(knowledge, (n+63)/64) }

func (k knowledge) set(i int32)      { k[i/64] |= 1 << (uint(i) % 64) }
func (k knowledge) has(i int32) bool { return k[i/64]&(1<<(uint(i)%64)) != 0 }

func (k knowledge) union(other knowledge) {
	for i := range k {
		k[i] |= other[i]
	}
}

func (k knowledge) clone() knowledge {
	out := make(knowledge, len(k))
	copy(out, k)
	return out
}

func (k knowledge) full(n int32) bool {
	for i := int32(0); i < n; i++ {
		if !k.has(i) {
			return false
		}
	}
	return true
}

type message struct {
	from    int32
	tag     int32
	size    int64
	payload knowledge
}

// rankState is one rank's execution state in the interpreter.
type rankState struct {
	ops       []trace.Op
	pc        int
	know      knowledge
	inbox     []message           // unexpected-message queue, send order
	posted    map[int32]*postSlot // request id -> posted irecv slot
	postOrder []int32             // request ids in post order for matching
	bytesSent int64
	bytesRecv int64
}

type postSlot struct {
	peer     int32
	tag      int32
	size     int64
	done     bool
	payload  knowledge
	isRecv   bool
	consumed bool // matched against an inbox message
}

func match(want *postSlot, m message) bool {
	return want.peer == m.from && want.tag == m.tag
}

// runDataFlow executes the expanded trace with eager message semantics
// and returns the final knowledge set of each rank. It fails with a
// deadlock error when no rank can make progress.
func runDataFlow(t *trace.Trace) ([]knowledge, []rankStats, error) {
	n := int32(t.NumRanks())
	states := make([]*rankState, n)
	for r := int32(0); r < n; r++ {
		know := newKnowledge(int(n))
		know.set(r)
		states[r] = &rankState{ops: t.Ops[r], know: know, posted: map[int32]*postSlot{}}
	}
	deliver := func(dst int32, m message) {
		s := states[dst]
		// Try to match an already-posted irecv in request order is not
		// well-defined; MPI matches in post order. Track post order via
		// a slice scan: acceptable for tests.
		for _, slot := range s.postedInOrder() {
			if slot.isRecv && !slot.done && match(slot, m) {
				slot.done = true
				slot.payload = m.payload
				return
			}
		}
		s.inbox = append(s.inbox, m)
	}
	progress := true
	for progress {
		progress = false
		for r := int32(0); r < n; r++ {
			s := states[r]
			for s.pc < len(s.ops) {
				op := s.ops[s.pc]
				switch op.Kind {
				case trace.OpCalc:
					// no-op for dataflow
				case trace.OpSend, trace.OpIsend:
					deliver(op.Peer, message{from: r, tag: op.Tag, size: op.Size, payload: s.know.clone()})
					s.bytesSent += op.Size
					if op.Kind == trace.OpIsend {
						s.posted[op.Req] = &postSlot{done: true}
					}
				case trace.OpRecv:
					m, ok := s.takeInbox(op)
					if !ok {
						goto blocked
					}
					s.know.union(m.payload)
					s.bytesRecv += m.size
				case trace.OpIrecv:
					slot := &postSlot{peer: op.Peer, tag: op.Tag, size: op.Size, isRecv: true}
					s.posted[op.Req] = slot
					s.postOrder = append(s.postOrder, op.Req)
					// Immediately try to match inbox.
					for i, m := range s.inbox {
						if match(slot, m) {
							slot.done = true
							slot.payload = m.payload
							s.inbox = append(s.inbox[:i], s.inbox[i+1:]...)
							break
						}
					}
				case trace.OpWait:
					slot, ok := s.posted[op.Req]
					if !ok {
						return nil, nil, fmt.Errorf("rank %d waits on unknown request %d", r, op.Req)
					}
					if !slot.done {
						goto blocked
					}
					if slot.isRecv {
						s.know.union(slot.payload)
						s.bytesRecv += slot.size
					}
					delete(s.posted, op.Req)
					s.removePostOrder(op.Req)
				case trace.OpWaitAll:
					allDone := true
					for _, slot := range s.posted {
						if !slot.done {
							allDone = false
							break
						}
					}
					if !allDone {
						goto blocked
					}
					for req, slot := range s.posted {
						if slot.isRecv {
							s.know.union(slot.payload)
							s.bytesRecv += slot.size
						}
						delete(s.posted, req)
					}
					s.postOrder = nil
				default:
					return nil, nil, fmt.Errorf("rank %d: unexpanded op %s", r, op.Kind)
				}
				s.pc++
				progress = true
			}
		blocked:
		}
		done := true
		for _, s := range states {
			if s.pc < len(s.ops) {
				done = false
				break
			}
		}
		if done {
			out := make([]knowledge, n)
			stats := make([]rankStats, n)
			for r, s := range states {
				out[r] = s.know
				stats[r] = rankStats{BytesSent: s.bytesSent, BytesRecv: s.bytesRecv, Leftover: len(s.inbox)}
			}
			return out, stats, nil
		}
	}
	var stuck []int32
	for r, s := range states {
		if s.pc < len(s.ops) {
			stuck = append(stuck, int32(r))
		}
	}
	return nil, nil, fmt.Errorf("deadlock: ranks %v blocked", stuck)
}

type rankStats struct {
	BytesSent int64
	BytesRecv int64
	Leftover  int
}

func (s *rankState) takeInbox(op trace.Op) (message, bool) {
	want := &postSlot{peer: op.Peer, tag: op.Tag, isRecv: true}
	for i, m := range s.inbox {
		if match(want, m) {
			s.inbox = append(s.inbox[:i], s.inbox[i+1:]...)
			return m, true
		}
	}
	return message{}, false
}

// postOrder tracking for deterministic irecv matching.
func (s *rankState) postedInOrder() []*postSlot {
	out := make([]*postSlot, 0, len(s.postOrder))
	for _, req := range s.postOrder {
		if slot, ok := s.posted[req]; ok {
			out = append(out, slot)
		}
	}
	return out
}

func (s *rankState) removePostOrder(req int32) {
	for i, v := range s.postOrder {
		if v == req {
			s.postOrder = append(s.postOrder[:i], s.postOrder[i+1:]...)
			return
		}
	}
}
