package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/journal"
)

// WAL record operations. accepted opens a job's journal history and
// one of the three terminal ops closes it: a job's lifecycle is two
// appends. started and retried are narration that older daemons wrote
// between the two; the queue no longer writes them, and Recover still
// reads and ignores them, so a log written before the change recovers.
const (
	opAccepted  = "accepted"
	opStarted   = "started"
	opRetried   = "retried"
	opSucceeded = "succeeded"
	opFailed    = "failed"
	opCanceled  = "canceled"
)

// walRecord is the JSON payload of every queue journal record. Only
// accepted records carry the spec; later records reference the id.
type walRecord struct {
	Op        string          `json:"op"`
	ID        string          `json:"id"`
	Kind      string          `json:"kind,omitempty"`
	RequestID string          `json:"request_id,omitempty"`
	Tenant    string          `json:"tenant,omitempty"`
	Retries   int             `json:"retries,omitempty"`
	Payload   json.RawMessage `json:"payload,omitempty"`
}

// journalLocked appends one of j's records to the configured journal
// (counted in Stats.WALErrors and logged when it fails). q.mu must be held,
// so the WAL's record order is the order the transitions were applied
// in. A job without a payload is not journaled: no restart could
// rebuild it, and its acceptance would keep every restart from
// compacting.
func (q *Queue) journalLocked(j *job, rec walRecord) {
	if len(j.spec.Payload) == 0 {
		return
	}
	if err := journal.Record(q.cfg.Journal, rec, &q.st.WALErrors); err != nil {
		q.logf("jobs: journal append failed (op=%s id=%s): %v", rec.Op, rec.ID, err)
	}
}

// logf writes to the configured logger, if any.
func (q *Queue) logf(format string, args ...any) {
	if q.cfg.Log != nil {
		q.cfg.Log.Printf(format, args...)
	}
}

// terminalOp maps a terminal state to its journal op.
func terminalOp(s State) string {
	switch s {
	case Succeeded:
		return opSucceeded
	case Failed:
		return opFailed
	default:
		return opCanceled
	}
}

// PendingJob is a journaled job that had no terminal record when the
// process died: it was queued or mid-run, and must be re-enqueued for
// the daemon's restart guarantee to hold. Payload is the replayable
// request the submitter journaled (Spec.Payload); the HTTP layer turns
// it back into a Func by Kind.
type PendingJob struct {
	ID   string
	Spec Spec
}

// Recover replays a queue journal directory and returns the jobs with
// a payload that never reached a terminal state, in original
// acceptance order: the replay of the queue's journal.Restart, whose
// re-journal re-submits each with SubmitRecovered, preserving ids (and
// so request correlation) across the restart. Corrupt segments are
// quarantined by the journal layer and reported in the stats, never an
// error.
func Recover(ctx context.Context, dir string) ([]PendingJob, journal.ReplayStats, error) {
	pending := map[string]Spec{}
	var order []string
	st, err := journal.Replay(ctx, dir, func(payload []byte) error {
		if id, terminal, ok := bareRecord(payload); ok {
			if terminal {
				delete(pending, string(id))
			}
			return nil
		}
		rec, ok := acceptedRecord(payload)
		if !ok {
			// Decoded into its own variable: &rec would move rec to the
			// heap for every record, not just for those decoded here.
			var decoded walRecord
			if err := json.Unmarshal(payload, &decoded); err != nil {
				// A record that passed its CRC but does not parse is a
				// version skew problem, not disk damage; fail loudly.
				return fmt.Errorf("jobs: recover: bad record: %w", err)
			}
			rec = decoded
		}
		switch rec.Op {
		case opAccepted:
			if _, ok := pending[rec.ID]; !ok {
				order = append(order, rec.ID)
			}
			pending[rec.ID] = Spec{
				Kind:      rec.Kind,
				RequestID: rec.RequestID,
				Tenant:    rec.Tenant,
				Retries:   rec.Retries,
				Payload:   rec.Payload,
			}
		case opSucceeded, opFailed, opCanceled:
			delete(pending, rec.ID)
		}
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	var out []PendingJob
	for _, id := range order {
		// An acceptance without a payload names a job nothing can
		// rebuild; older queues journaled cluster shards so.
		if spec, ok := pending[id]; ok && len(spec.Payload) > 0 {
			out = append(out, PendingJob{ID: id, Spec: spec})
		}
	}
	return out, st, nil
}

// bareRecord recognises the exact bytes json.Marshal produces for a
// walRecord holding only Op and ID — every terminal record, and the
// narration of older logs — so Recover applies them without a decode:
// {"op":"<op>","id":"<id>"}, op one of the five that carry nothing
// else, id plain (so the quote that ends it is the one before the
// brace). Whatever differs by a byte is declined and goes to
// json.Unmarshal, which alone decides what parses. id is a view into b.
func bareRecord(b []byte) (id []byte, terminal, ok bool) {
	b, head := bytes.CutPrefix(b, []byte(`{"op":"`))
	b, tail := bytes.CutSuffix(b, []byte(`"}`))
	op, id, mid := bytes.Cut(b, []byte(`","id":"`))
	if !head || !tail || !mid || !plain(id) {
		return nil, false, false
	}
	switch string(op) {
	case opStarted, opRetried:
	case opSucceeded, opFailed, opCanceled:
		terminal = true
	default:
		return nil, false, false
	}
	return id, terminal, true
}

// acceptedRecord recognises the exact bytes json.Marshal produces for an
// acceptance, the other record of a job's two, and returns what
// json.Unmarshal makes of them:
//
//	{"op":"accepted","id":"S"[,"kind":"S"][,"request_id":"S"][,"tenant":"S"][,"retries":D][,"payload":V]}
//
// S is plain, D one to eighteen digits without a leading zero, and V the
// rest of the record before its closing brace: valid JSON (so not
// empty) with no whitespace at either end, which the decoder would trim.
// Whatever differs by a byte is declined and goes to json.Unmarshal,
// which alone decides what parses. The record owns its bytes: b is a
// replay view.
func acceptedRecord(b []byte) (walRecord, bool) {
	b, head := bytes.CutPrefix(b, []byte(`{"op":"accepted","id":"`))
	b, tail := bytes.CutSuffix(b, []byte(`}`))
	id, b, ok := plainString(b)
	if !head || !tail || !ok {
		return walRecord{}, false
	}
	var strs [3][]byte // kind, request_id, tenant; nil when absent
	for i, key := range [...]string{`,"kind":"`, `,"request_id":"`, `,"tenant":"`} {
		if rest, present := bytes.CutPrefix(b, []byte(key)); present {
			if strs[i], b, ok = plainString(rest); !ok {
				return walRecord{}, false
			}
		}
	}
	retries := 0
	if rest, present := bytes.CutPrefix(b, []byte(`,"retries":`)); present {
		n := 0
		for ; n < len(rest) && '0' <= rest[n] && rest[n] <= '9'; n++ {
			retries = retries*10 + int(rest[n]-'0')
		}
		if n == 0 || n > 18 || rest[0] == '0' {
			return walRecord{}, false
		}
		b = rest[n:]
	}
	var payload json.RawMessage
	if rest, present := bytes.CutPrefix(b, []byte(`,"payload":`)); present {
		if len(bytes.TrimSpace(rest)) != len(rest) || !json.Valid(rest) {
			return walRecord{}, false
		}
		payload, b = bytes.Clone(rest), nil
	}
	if len(b) != 0 {
		return walRecord{}, false
	}
	return walRecord{
		Op:        opAccepted,
		ID:        string(id),
		Kind:      string(strs[0]),
		RequestID: string(strs[1]),
		Tenant:    string(strs[2]),
		Retries:   retries,
		Payload:   payload,
	}, true
}

// plain reports whether s is printable ASCII with no quote or backslash:
// a string body json.Marshal writes verbatim and the decoder reads back
// unchanged.
func plain(s []byte) bool {
	for _, c := range s {
		if c < ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// plainString cuts a plain string body and its closing quote off the
// front of b.
func plainString(b []byte) (s, rest []byte, ok bool) {
	i := bytes.IndexByte(b, '"')
	if i < 0 || !plain(b[:i]) {
		return nil, nil, false
	}
	return b[:i], b[i+1:], true
}

// SubmitRecovered re-enqueues a job recovered from the journal under
// its original id, so clients polling a pre-crash job id find their
// job again. The acceptance is re-journaled: replaying the extended
// log after a second crash reaches the same pending set.
func (q *Queue) SubmitRecovered(p PendingJob, fn Func) (string, error) {
	return q.submit(p.ID, p.Spec, fn, true)
}
