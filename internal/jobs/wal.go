package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/journal"
)

// WAL record operations. accepted opens a job's journal history;
// started and retried narrate progress (a job with no terminal record
// is incomplete whatever its last narration says); the three terminal
// ops close it.
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

// journalLocked appends one record to the configured journal (counted
// in walErrors and logged when it fails). q.mu must be held, so the
// WAL's record order is the order the transitions were applied in.
func (q *Queue) journalLocked(rec walRecord) {
	if err := journal.Record(q.cfg.Journal, rec, &q.walErrors); err != nil {
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

// Recover replays a queue journal directory and returns the jobs that
// never reached a terminal state, in original acceptance order: the
// replay of the queue's journal.Restart, whose re-journal re-submits
// each with SubmitRecovered, preserving ids (and so request
// correlation) across the restart. Corrupt segments are
// quarantined by the journal layer and reported in the stats, never an
// error.
func Recover(ctx context.Context, dir string) ([]PendingJob, journal.ReplayStats, error) {
	pending := map[string]*PendingJob{}
	var order []string
	st, err := journal.Replay(ctx, dir, func(payload []byte) error {
		if id, terminal, ok := bareRecord(payload); ok {
			if terminal {
				delete(pending, string(id))
			}
			return nil
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A record that passed its CRC but does not parse is a
			// version skew problem, not disk damage; fail loudly.
			return fmt.Errorf("jobs: recover: bad record: %w", err)
		}
		switch rec.Op {
		case opAccepted:
			if _, ok := pending[rec.ID]; !ok {
				order = append(order, rec.ID)
			}
			pending[rec.ID] = &PendingJob{
				ID: rec.ID,
				Spec: Spec{
					Kind:      rec.Kind,
					RequestID: rec.RequestID,
					Tenant:    rec.Tenant,
					Retries:   rec.Retries,
					Payload:   rec.Payload,
				},
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
		if p, ok := pending[id]; ok {
			out = append(out, *p)
		}
	}
	return out, st, nil
}

// bareRecord recognises the exact bytes json.Marshal produces for a
// walRecord holding only Op and ID — two records in three — so Recover
// applies them without a decode: {"op":"<op>","id":"<id>"}, op one of
// the five that carry nothing else, id printable ASCII with no quote or
// backslash (so the quote that ends it is the one before the brace).
// Whatever differs by a byte is declined and goes to json.Unmarshal,
// which alone decides what parses. id is a view into b.
func bareRecord(b []byte) (id []byte, terminal, ok bool) {
	b, head := bytes.CutPrefix(b, []byte(`{"op":"`))
	b, tail := bytes.CutSuffix(b, []byte(`"}`))
	op, id, mid := bytes.Cut(b, []byte(`","id":"`))
	if !head || !tail || !mid {
		return nil, false, false
	}
	switch string(op) {
	case opStarted, opRetried:
	case opSucceeded, opFailed, opCanceled:
		terminal = true
	default:
		return nil, false, false
	}
	for _, c := range id {
		if c < ' ' || c > '~' || c == '"' || c == '\\' {
			return nil, false, false
		}
	}
	return id, terminal, true
}

// SubmitRecovered re-enqueues a job recovered from the journal under
// its original id, so clients polling a pre-crash job id find their
// job again. The acceptance is re-journaled: replaying the extended
// log after a second crash reaches the same pending set.
func (q *Queue) SubmitRecovered(p PendingJob, fn Func) (string, error) {
	return q.submit(p.ID, p.Spec, fn, true)
}
