// Package trace defines the MPI operation traces consumed by the
// simulator.
//
// A trace records, for every rank, the ordered sequence of MPI operations
// and intervening computation intervals the application executed. This is
// the same information LogGOPSim consumes from its "goal" schedules: the
// simulator replays the operations, reconstructing every communication
// dependency (including transitive dependencies between ranks that never
// communicate directly).
//
// Collective operations appear as single logical ops in traces; the
// collectives package expands them into point-to-point schedules at
// simulation time so that algorithm choice is a simulation parameter
// rather than baked into the trace.
package trace

import (
	"errors"
	"fmt"
)

// OpKind enumerates the trace operation types.
type OpKind uint8

// Operation kinds. P2P operations carry Peer/Size/Tag; nonblocking ones
// also carry a request identifier consumed by a later Wait. Collectives
// carry Size (bytes contributed per rank) and, when rooted, Peer (root).
const (
	OpCalc    OpKind = iota // local computation for Dur nanoseconds
	OpSend                  // blocking send to Peer
	OpRecv                  // blocking receive from Peer
	OpIsend                 // nonblocking send, completes at Wait(Req)
	OpIrecv                 // nonblocking receive, completes at Wait(Req)
	OpWait                  // wait for request Req
	OpWaitAll               // wait for all outstanding requests
	OpBcast                 // broadcast from root = Peer
	OpAllreduce
	numOpKinds
)

var kindNames = [...]string{
	OpCalc:      "calc",
	OpSend:      "send",
	OpRecv:      "recv",
	OpIsend:     "isend",
	OpIrecv:     "irecv",
	OpWait:      "wait",
	OpWaitAll:   "waitall",
	OpBcast:     "bcast",
	OpAllreduce: "allreduce",
}

// String returns the lower-case mnemonic used in the text codec.
func (k OpKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// IsCollective reports whether the kind is a collective operation.
func (k OpKind) IsCollective() bool {
	return k == OpBcast || k == OpAllreduce
}

// Op is a single trace operation. The meaning of the fields depends on
// Kind; unused fields are zero.
type Op struct {
	Kind OpKind
	Peer int32 // p2p peer, or collective root
	Tag  int32 // message tag (p2p)
	Req  int32 // request id for Isend/Irecv/Wait (unique per rank between waits)
	Size int64 // message bytes (p2p) or per-rank contribution (collective)
	Dur  int64 // computation nanoseconds (OpCalc only)
}

// Calc returns a computation op of d nanoseconds.
func Calc(d int64) Op { return Op{Kind: OpCalc, Dur: d} }

// Send returns a blocking send op.
func Send(peer int32, size int64, tag int32) Op {
	return Op{Kind: OpSend, Peer: peer, Size: size, Tag: tag}
}

// Recv returns a blocking receive op.
func Recv(peer int32, size int64, tag int32) Op {
	return Op{Kind: OpRecv, Peer: peer, Size: size, Tag: tag}
}

// Isend returns a nonblocking send op with request id req.
func Isend(peer int32, size int64, tag, req int32) Op {
	return Op{Kind: OpIsend, Peer: peer, Size: size, Tag: tag, Req: req}
}

// Irecv returns a nonblocking receive op with request id req.
func Irecv(peer int32, size int64, tag, req int32) Op {
	return Op{Kind: OpIrecv, Peer: peer, Size: size, Tag: tag, Req: req}
}

// Wait returns a wait op for request id req.
func Wait(req int32) Op { return Op{Kind: OpWait, Req: req} }

// WaitAll returns a wait op for all outstanding requests on the rank.
func WaitAll() Op { return Op{Kind: OpWaitAll} }

// Allreduce returns an allreduce op contributing size bytes per rank.
func Allreduce(size int64) Op { return Op{Kind: OpAllreduce, Size: size} }

// Bcast returns a broadcast op rooted at root.
func Bcast(root int32, size int64) Op { return Op{Kind: OpBcast, Peer: root, Size: size} }

// Trace holds the per-rank operation sequences of one application run.
type Trace struct {
	// Name identifies the workload (e.g. "lulesh"). Informational.
	Name string
	// Ops[r] is the ordered operation list of rank r.
	Ops [][]Op
}

// NumRanks returns the number of ranks in the trace.
func (t *Trace) NumRanks() int { return len(t.Ops) }

// NumOps returns the total operation count across all ranks.
func (t *Trace) NumOps() int {
	n := 0
	for _, ops := range t.Ops {
		n += len(ops)
	}
	return n
}

// Validation errors.
var (
	ErrEmptyTrace = errors.New("trace: no ranks")
)

// Validate checks structural invariants:
//   - at least one rank;
//   - p2p peers and collective roots are valid ranks, a p2p peer is not
//     the rank itself, and p2p tags are non-negative (a receive names
//     its exact source and tag: there are no wildcards);
//   - nonblocking requests are waited on exactly once and not reused while
//     outstanding;
//   - every rank participates in the same sequence of collectives;
//   - sizes and durations are non-negative.
//
// It does not verify point-to-point send/recv matching (that is the
// simulator's job, and mismatches surface as deadlock diagnostics).
func (t *Trace) Validate() error {
	n := int32(t.NumRanks())
	if n == 0 {
		return ErrEmptyTrace
	}
	var collSeq0 []OpKind
	for r, ops := range t.Ops {
		outstanding := map[int32]bool{}
		var collSeq []OpKind
		for i, op := range ops {
			if op.Size < 0 {
				return fmt.Errorf("trace: rank %d op %d (%s): negative size %d", r, i, op.Kind, op.Size)
			}
			if op.Dur < 0 {
				return fmt.Errorf("trace: rank %d op %d (%s): negative duration %d", r, i, op.Kind, op.Dur)
			}
			switch op.Kind {
			case OpCalc, OpAllreduce, OpWaitAll:
				// No peer to validate.
			case OpSend, OpIsend, OpRecv, OpIrecv:
				if op.Peer < 0 || op.Peer >= n {
					return fmt.Errorf("trace: rank %d op %d (%s): peer %d out of range [0,%d)", r, i, op.Kind, op.Peer, n)
				}
				if op.Peer == int32(r) {
					return fmt.Errorf("trace: rank %d op %d (%s): peer is the rank itself", r, i, op.Kind)
				}
				if op.Tag < 0 {
					return fmt.Errorf("trace: rank %d op %d (%s): negative tag %d", r, i, op.Kind, op.Tag)
				}
			case OpBcast:
				if op.Peer < 0 || op.Peer >= n {
					return fmt.Errorf("trace: rank %d op %d (%s): root %d out of range", r, i, op.Kind, op.Peer)
				}
			case OpWait:
				if !outstanding[op.Req] {
					return fmt.Errorf("trace: rank %d op %d: wait on unknown request %d", r, i, op.Req)
				}
			default:
				return fmt.Errorf("trace: rank %d op %d: unknown kind %d", r, i, op.Kind)
			}
			switch op.Kind {
			case OpIsend, OpIrecv:
				if outstanding[op.Req] {
					return fmt.Errorf("trace: rank %d op %d (%s): request %d already outstanding", r, i, op.Kind, op.Req)
				}
				outstanding[op.Req] = true
			case OpWait:
				delete(outstanding, op.Req)
			case OpWaitAll:
				outstanding = map[int32]bool{}
			}
			if op.Kind.IsCollective() {
				collSeq = append(collSeq, op.Kind)
			}
		}
		if len(outstanding) != 0 {
			return fmt.Errorf("trace: rank %d: %d requests never waited on", r, len(outstanding))
		}
		if r == 0 {
			collSeq0 = collSeq
		} else if len(collSeq) != len(collSeq0) {
			return fmt.Errorf("trace: rank %d has %d collectives, rank 0 has %d", r, len(collSeq), len(collSeq0))
		} else {
			for i := range collSeq {
				if collSeq[i] != collSeq0[i] {
					return fmt.Errorf("trace: rank %d collective %d is %s, rank 0 has %s", r, i, collSeq[i], collSeq0[i])
				}
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	out := &Trace{Name: t.Name, Ops: make([][]Op, len(t.Ops))}
	for r, ops := range t.Ops {
		out.Ops[r] = append([]Op(nil), ops...)
	}
	return out
}
