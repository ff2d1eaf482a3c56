package cluster

// Coordinator durability: every state transition that matters for
// recovery — sweep creation, lease grants, completion fragments and
// failures — is journaled through internal/journal while c.mu is held,
// so the WAL's record order always matches the order the transitions
// were applied in. Replay is therefore a pure fold over the records:
// same WAL, same recovered state (docs/DURABILITY.md).
//
// Each journaled transition — sweep created, shard done, shard failed,
// sweep failed — has one implementation below, called by the live
// method and by replay alike. It appends its own record, which during
// replay goes nowhere: journal.Restart replays before it opens the
// writer, so c.wal is still nil.
//
// What is deliberately NOT journaled: heartbeats and lease expiries.
// Leases are void across a restart by construction — the recovered
// coordinator starts a new epoch and every non-done shard comes back
// pending — so persisting lease liveness would be dead weight. Grant
// records are kept anyway because they carry the attempt count, which
// is the retry budget's memory.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/rng"
)

// Coordinator WAL record operations.
const (
	// copEpoch stamps a coordinator generation: one record per Open.
	// Replay computes max(stamped)+1 and OpenCoordinator writes that
	// value back.
	copEpoch = "epoch"
	// copSweepCreated opens a sweep's history and carries the resolved
	// spec; the shard plan is re-derived from it on replay (Cells() is
	// deterministic), never stored.
	copSweepCreated = "sweep_created"
	// copLease narrates a grant. Replay keeps only the attempt count:
	// the lease itself dies with the epoch.
	copLease = "lease"
	// copShardDone closes a shard with its fragment's canonical
	// WriteJSON bytes, so a recovered merge is byte-identical.
	copShardDone = "shard_done"
	// copShardFailed narrates one failed attempt (non-terminal).
	copShardFailed = "shard_failed"
	// copSweepFailed closes a sweep that exhausted a shard's budget.
	copSweepFailed = "sweep_failed"
)

// coordRecord is the JSON payload of every coordinator journal record.
type coordRecord struct {
	Op       string          `json:"op"`
	Epoch    uint64          `json:"epoch,omitempty"`
	SweepID  string          `json:"sweep_id,omitempty"`
	Key      string          `json:"key,omitempty"`
	Worker   string          `json:"worker,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
	Spec     *Spec           `json:"spec,omitempty"`
	Figure   json.RawMessage `json:"figure,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// journalLocked appends one record to the configured journal. c.mu must
// be held. A failure degrades durability, never the sweep: it is counted
// (Status.JournalErrors) and the in-memory coordinator proceeds.
func (c *Coordinator) journalLocked(rec coordRecord) {
	_ = journal.Record(c.wal, rec, &c.st.JournalErrors) // counted; the sweep goes on
}

// journalShardDoneLocked journals a completed shard with its fragment's
// canonical bytes. Encoding the in-memory figure is safe because
// WriteJSON/ReadFigureJSON round-trip bit-exactly — the same invariant
// the wire protocol relies on.
func (c *Coordinator) journalShardDoneLocked(sw *sweep, sh *shard) {
	if c.wal == nil {
		return
	}
	var buf bytes.Buffer
	if err := sh.fragment.WriteJSON(&buf); err != nil {
		c.st.JournalErrors++
		return
	}
	c.journalLocked(coordRecord{
		Op: copShardDone, SweepID: sw.id, Key: sh.cell.Key(),
		Figure: json.RawMessage(buf.Bytes()),
	})
}

// createSweepLocked plans sweep id from its resolved spec, so a replayed
// plan (and merge order) is the one CreateSweep made, with every shard
// pending and no backoff: a replayed lease is void, and recovery is not
// load. A known id is left alone, and the id sequence stays above every
// id so later sweeps cannot collide with replayed ones. c.mu must be held.
func (c *Coordinator) createSweepLocked(id string, spec Spec) *sweep {
	if sw, ok := c.sweeps[id]; ok {
		return sw
	}
	sw := &sweep{id: id, spec: spec, byKey: map[string]*shard{}}
	for _, cell := range spec.Cells() {
		sh := &shard{
			cell:   cell,
			state:  shardPending,
			jitter: rng.New(CellSeed(spec.Seed, cell.Key())),
		}
		sw.shards = append(sw.shards, sh)
		sw.byKey[cell.Key()] = sh
	}
	c.sweeps[id] = sw
	c.sweepIDs = append(c.sweepIDs, id)
	var n int
	if _, err := fmt.Sscanf(id, "s%d", &n); err == nil && n > c.sweepSeq {
		c.sweepSeq = n
	}
	c.journalLocked(coordRecord{Op: copSweepCreated, SweepID: id, Spec: &sw.spec})
	return sw
}

// shardDoneLocked closes sh with its fragment. Once the sweep's last
// shard closes the sweep is merged and retention applies; finished
// reports that. c.mu must be held.
func (c *Coordinator) shardDoneLocked(sw *sweep, sh *shard, fragment *core.Figure) (finished bool) {
	sh.fragment = fragment
	sh.state = shardDone
	sh.worker = ""
	sw.done++
	c.journalShardDoneLocked(sw, sh)
	if sw.done < len(sw.shards) {
		return false
	}
	sw.merged = mergeSweep(sw)
	c.retainLocked()
	return true
}

// shardFailedLocked records a failed attempt on sh: its error, and the
// attempts it has consumed, which the retry budget is measured against.
// c.mu must be held.
func (c *Coordinator) shardFailedLocked(sw *sweep, sh *shard, attempts int, msg string) {
	sh.lastErr = msg
	sh.worker = ""
	sh.attempts = max(sh.attempts, attempts)
	c.journalLocked(coordRecord{
		Op: copShardFailed, SweepID: sw.id, Key: sh.cell.Key(),
		Attempts: sh.attempts, Error: msg,
	})
}

// sweepFailedLocked fails sw on sh, the shard whose budget ran out (nil
// when a replayed record names no shard of the plan), and applies
// retention. c.mu must be held.
func (c *Coordinator) sweepFailedLocked(sw *sweep, sh *shard, msg string) {
	var key string
	if sh != nil {
		sh.state = shardFailed
		sh.worker = ""
		key = sh.cell.Key()
	}
	sw.failed = true
	sw.err = msg
	c.journalLocked(coordRecord{Op: copSweepFailed, SweepID: sw.id, Key: key, Error: msg})
	c.retainLocked()
}

// OpenCoordinator builds a coordinator whose state is durable in dir,
// through journal.Restart: it replays the journal already there
// (rebuilding sweeps with only their unfinished cells pending), then
// stamps a fresh epoch — so workers of the previous generation
// re-register instead of acting on void leases — and re-journals the
// recovered state as a snapshot through the new writer. An unfinished
// sweep therefore survives any number of restarts. Corrupt segments are
// quarantined and surfaced in the replay stats, never an error.
func OpenCoordinator(ctx context.Context, _ Config, dir string) (*Coordinator, journal.ReplayStats, error) {
	return openCoordinator(ctx, time.Now, dir)
}

// openCoordinator is OpenCoordinator on the given clock.
func openCoordinator(ctx context.Context, now func() time.Time, dir string) (*Coordinator, journal.ReplayStats, error) {
	c := newCoordinator(now) // replay journals nowhere; Restart's writer takes over after it
	var failed uint64
	_, st, kept, err := journal.Restart(ctx, dir, c.replay, func(w *journal.Writer) error {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.wal, c.ownJournal = w, w
		before := c.st.JournalErrors
		c.journalLocked(coordRecord{Op: copEpoch, Epoch: c.epoch})
		c.snapshotLocked()
		if failed = c.st.JournalErrors - before; failed > 0 {
			return fmt.Errorf("cluster: %d snapshot records not journaled", failed)
		}
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	// A snapshot left incomplete keeps the old segments authoritative (the
	// next replay computes the same epoch again); its failed records are
	// counted already, a failed sync or compaction is counted here.
	if kept != nil && failed == 0 {
		c.mu.Lock()
		c.st.JournalErrors++
		c.mu.Unlock()
	}
	return c, st, nil
}

// snapshotLocked re-journals the recovered state through the freshly
// opened writer: each sweep's creation, the surviving attempt counts
// and last errors of its pending shards, its completed fragments, and
// its terminal failure — in the order the original log applied them,
// so replaying the snapshot folds to the same state. c.mu must be held.
func (c *Coordinator) snapshotLocked() {
	for _, id := range c.sweepIDs {
		sw := c.sweeps[id]
		c.journalLocked(coordRecord{Op: copSweepCreated, SweepID: id, Spec: &sw.spec})
		for _, sh := range sw.shards {
			switch sh.state {
			case shardPending:
				if sh.lastErr != "" {
					c.journalLocked(coordRecord{
						Op: copShardFailed, SweepID: id, Key: sh.cell.Key(),
						Attempts: sh.attempts, Error: sh.lastErr,
					})
				} else if sh.attempts > 0 {
					c.journalLocked(coordRecord{
						Op: copLease, SweepID: id, Key: sh.cell.Key(),
						Attempts: sh.attempts,
					})
				}
			case shardDone:
				c.journalShardDoneLocked(sw, sh)
			}
		}
		if sw.failed {
			var key string
			for _, sh := range sw.shards {
				if sh.state == shardFailed {
					key = sh.cell.Key()
					break
				}
			}
			c.journalLocked(coordRecord{Op: copSweepFailed, SweepID: id, Key: key, Error: sw.err})
		}
	}
}

// Close syncs and closes the journal OpenCoordinator created, if any.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	w := c.ownJournal
	c.ownJournal = nil
	c.wal = nil
	c.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.Close()
}

// Epoch returns the coordinator's generation number. It is 1 for an
// in-memory coordinator and increments on every durable restart.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// checkEpoch validates a worker-supplied epoch against the current
// generation. Every Worker registers before it leases and echoes the
// epoch registration returned, which is at least 1, so an absent epoch
// (0) is a mismatch like any other.
func (c *Coordinator) checkEpoch(e uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e != c.epoch {
		return fmt.Errorf("%w: worker epoch %d, coordinator epoch %d", ErrEpochMismatch, e, c.epoch)
	}
	return nil
}

// replay folds the journal in dir into the empty coordinator — the
// replay step of journal.Restart — through the same transitions the
// live methods apply, and leaves the epoch one above the highest
// stamped. Record kinds unknown to this version are skipped (forward
// compatibility); records that fail to parse are version skew, not disk
// damage, and fail loudly.
func (c *Coordinator) replay(ctx context.Context, dir string) (journal.ReplayStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = 0
	st, err := journal.Replay(ctx, dir, func(payload []byte) error {
		var rec coordRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("cluster: recover: bad record: %w", err)
		}
		sw := c.sweeps[rec.SweepID]
		var sh *shard
		if sw != nil {
			sh = sw.byKey[rec.Key]
		}
		switch rec.Op {
		case copEpoch:
			c.epoch = max(c.epoch, rec.Epoch)
		case copSweepCreated:
			if rec.Spec == nil || rec.SweepID == "" {
				return fmt.Errorf("cluster: recover: sweep_created record missing spec or id")
			}
			c.createSweepLocked(rec.SweepID, *rec.Spec)
		case copLease:
			if sh != nil && sh.state == shardPending {
				sh.attempts = max(sh.attempts, rec.Attempts)
			}
		case copShardDone:
			if sh == nil || sh.state == shardDone || sw.failed {
				return nil // idempotent duplicate, or a sweep already abandoned
			}
			f, err := core.ReadFigureJSON(bytes.NewReader(rec.Figure))
			if err != nil {
				return fmt.Errorf("cluster: recover: shard %s fragment: %w", rec.Key, err)
			}
			c.shardDoneLocked(sw, sh, f)
		case copShardFailed:
			if sh != nil && sh.state == shardPending {
				c.shardFailedLocked(sw, sh, rec.Attempts, rec.Error)
			}
		case copSweepFailed:
			if sw != nil && !sw.terminal() {
				c.sweepFailedLocked(sw, sh, rec.Error)
			}
		}
		return nil
	})
	c.epoch++
	return st, err
}
