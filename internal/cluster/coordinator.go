package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/rng"
)

// Sentinel errors of the lease protocol. The HTTP layer and tests
// match them with errors.Is; they are wrapped, never compared.
var (
	// ErrUnknownWorker reports a lease, heartbeat or report from a
	// worker id the coordinator does not know (never registered, or
	// expired after missing heartbeats). The worker must re-register.
	ErrUnknownWorker = errors.New("cluster: unknown worker")
	// ErrUnknownSweep reports an operation on a sweep id the
	// coordinator does not know (or has already forgotten).
	ErrUnknownSweep = errors.New("cluster: unknown sweep")
	// ErrUnknownShard reports a report for a shard key outside the
	// sweep's plan.
	ErrUnknownShard = errors.New("cluster: unknown shard")
	// ErrSweepFailed reports a sweep whose shard exhausted its retry
	// budget; the client surfaces it with the failing shard's error.
	ErrSweepFailed = errors.New("cluster: sweep failed")
	// ErrEpochMismatch reports traffic stamped with another coordinator
	// generation: the worker is talking to a restarted coordinator (or a
	// stale one) and must re-register. Its leases from the old epoch are
	// void; its computed fragments stay welcome (reports are idempotent
	// and bit-identical wherever they ran).
	ErrEpochMismatch = errors.New("cluster: epoch mismatch")
)

// Config is OpenCoordinator's parameter. It has no fields: the lease
// TTL is a constant and the clock is time.Now.
type Config struct{}

const (
	// leaseTTL is how long a granted shard stays leased without a
	// heartbeat before it is re-assigned.
	leaseTTL = 10 * time.Second
	// workerTTL is how long a registered worker survives without any
	// traffic before it is dropped.
	workerTTL = 30 * time.Second
	// retryBudget is how many attempts a shard gets after its first.
	// A failed attempt is re-offered after the jobs backoff
	// (jobs.Backoff, jittered per cell). Lease expiries
	// consume the same budget — an attempt that vanished is still an
	// attempt.
	retryBudget = 3
	// retainSweeps bounds how many terminal sweeps are kept for
	// polling; the oldest are forgotten first.
	retainSweeps = 16
)

// shardState is a shard's lifecycle position.
type shardState string

const (
	shardPending shardState = "pending"
	shardLeased  shardState = "leased"
	shardDone    shardState = "done"
	shardFailed  shardState = "failed"
)

// shard is one leased unit of a sweep: a cell plus its lease and retry
// bookkeeping.
type shard struct {
	cell  Cell
	state shardState
	// attempts counts lease grants (1-based once granted).
	attempts int
	// worker holds the current lease, "" when not leased.
	worker      string
	leaseExpiry time.Time
	notBefore   time.Time
	// jitter is the deterministic backoff stream derived from the cell
	// seed (CellSeed), so re-offer timing is reproducible per plan.
	jitter *rng.Source
	// fragment is the reported figure restricted to this cell's
	// workload.
	fragment *core.Figure
	// lastErr is the most recent failure report, kept for the sweep's
	// failure message.
	lastErr string
	// reassigned counts lease expiries that returned the shard to
	// pending.
	reassigned int
}

// sweep is one distributed campaign sweep.
type sweep struct {
	id     string
	spec   Spec     // defaults resolved
	shards []*shard // plan (merge) order
	byKey  map[string]*shard
	done   int
	failed bool
	err    string
	// merged holds the per-figure merged results once every shard is
	// done.
	merged map[string]*core.Figure
}

func (s *sweep) terminal() bool { return s.failed || s.done == len(s.shards) }

func (s *sweep) state() string {
	switch {
	case s.failed:
		return "failed"
	case s.done == len(s.shards):
		return "done"
	default:
		return "running"
	}
}

// worker is one registered cesimd worker.
type workerInfo struct {
	id       string
	addr     string
	lastSeen time.Time
}

// Coordinator shards sweeps across registered workers. All methods are
// safe for concurrent use; construct with NewCoordinator.
type Coordinator struct {
	now func() time.Time
	// wal, when set, receives one durable record per recovery-relevant
	// state transition (sweep created, lease granted, shard done/failed,
	// sweep failed). OpenCoordinator wires a journal.Writer here.
	wal journal.Appender

	mu        sync.Mutex
	workers   map[string]*workerInfo
	sweeps    map[string]*sweep
	sweepIDs  []string // creation order (lease scan + retention order)
	workerSeq int
	sweepSeq  int
	// epoch is the coordinator generation: 1 in memory, replayed-max+1
	// after a durable restart. Stamped into the register handshake and
	// checked on lease/heartbeat/report traffic.
	epoch uint64
	// ownJournal is the writer OpenCoordinator created (Close closes it).
	ownJournal *journal.Writer
	st         Counters
}

// NewCoordinator builds an empty in-memory coordinator.
func NewCoordinator() *Coordinator { return newCoordinator(time.Now) }

func newCoordinator(now func() time.Time) *Coordinator {
	return &Coordinator{
		now:     now,
		workers: map[string]*workerInfo{},
		sweeps:  map[string]*sweep{},
		epoch:   1,
	}
}

// Register adds (or refreshes) a worker and returns its id and the
// lease TTL it must heartbeat within. An empty id requests a new
// registration; a known id re-registers the same identity (worker
// restart), an unknown non-empty id is accepted as new so a coordinator
// restart does not strand workers.
func (c *Coordinator) Register(workerID, addr string) (string, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(now)
	if workerID == "" {
		// The epoch keeps a minted id unique across restarts: a worker of
		// an earlier generation re-registers under the id it got then.
		c.workerSeq++
		workerID = fmt.Sprintf("e%d-w%d", c.epoch, c.workerSeq)
	}
	w, ok := c.workers[workerID]
	if !ok {
		w = &workerInfo{id: workerID}
		c.workers[workerID] = w
	}
	w.addr = addr
	w.lastSeen = now
	return workerID, leaseTTL
}

// Grant is one leased shard handed to a worker: the cell to run and
// the sweep spec to run it under.
type Grant struct {
	SweepID string `json:"sweep_id"`
	Key     string `json:"key"`
	Cell    Cell   `json:"cell"`
	Spec    Spec   `json:"spec"`
}

// Lease grants the first pending shard whose retry backoff has passed
// — in sweep creation order, then plan order — to the asking worker,
// or returns nil when no work is available. Which worker runs a cell
// never matters: its rows are a pure function of the spec.
func (c *Coordinator) Lease(workerID string) (*Grant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(now)
	w, ok := c.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorker, workerID)
	}
	w.lastSeen = now
	for _, id := range c.sweepIDs {
		sw := c.sweeps[id]
		if sw.terminal() {
			continue
		}
		for _, sh := range sw.shards {
			if sh.state != shardPending || now.Before(sh.notBefore) {
				continue
			}
			sh.state = shardLeased
			sh.worker = workerID
			sh.attempts++
			sh.leaseExpiry = now.Add(leaseTTL)
			c.st.Grants++
			// The grant record's job is the attempt count: a lease never
			// survives a restart, but the retry budget it consumed must.
			c.journalLocked(coordRecord{
				Op: copLease, SweepID: sw.id, Key: sh.cell.Key(),
				Worker: workerID, Attempts: sh.attempts,
			})
			return &Grant{SweepID: sw.id, Key: sh.cell.Key(), Cell: sh.cell, Spec: sw.spec}, nil
		}
	}
	return nil, nil
}

// ShardRef identifies one leased shard in heartbeat traffic.
type ShardRef struct {
	SweepID string `json:"sweep_id"`
	Key     string `json:"key"`
}

// Heartbeat extends the worker's leases and returns the refs it should
// drop: shards no longer leased to it (expired and re-assigned, or the
// sweep finished without it).
func (c *Coordinator) Heartbeat(workerID string, held []ShardRef) ([]ShardRef, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(now)
	w, ok := c.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorker, workerID)
	}
	w.lastSeen = now
	var drop []ShardRef
	for _, ref := range held {
		sw, ok := c.sweeps[ref.SweepID]
		if !ok {
			drop = append(drop, ref)
			continue
		}
		sh, ok := sw.byKey[ref.Key]
		if !ok || sh.state != shardLeased || sh.worker != workerID {
			drop = append(drop, ref)
			continue
		}
		sh.leaseExpiry = now.Add(leaseTTL)
	}
	return drop, nil
}

// Report records a shard outcome. Successful fragments are accepted
// from any worker while the shard is unfinished — results are
// bit-identical wherever they ran, so a late report from a lease-lost
// worker simply completes the shard early and the replacement's copy
// becomes an idempotent duplicate. Failures only count when reported
// by the current lease holder.
func (c *Coordinator) Report(workerID, sweepID, key string, fragment *core.Figure, reportErr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(now)
	if w, ok := c.workers[workerID]; ok {
		w.lastSeen = now
	}
	sw, ok := c.sweeps[sweepID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSweep, sweepID)
	}
	sh, ok := sw.byKey[key]
	if !ok {
		return fmt.Errorf("%w: %q in sweep %s", ErrUnknownShard, key, sweepID)
	}
	if sh.state == shardDone || sw.failed {
		return nil // idempotent duplicate, or a sweep already abandoned
	}
	if reportErr == "" && fragment != nil {
		c.st.CompletedShards++
		if c.shardDoneLocked(sw, sh, fragment) {
			c.st.SweepsDone++
		}
		return nil
	}
	// Failure path: only the lease holder's word counts.
	if sh.state != shardLeased || sh.worker != workerID {
		return nil
	}
	c.st.FailedAttempts++
	c.shardFailedLocked(sw, sh, sh.attempts, reportErr)
	if sh.attempts > retryBudget {
		c.st.SweepsFailed++
		c.sweepFailedLocked(sw, sh, fmt.Sprintf("shard %s failed after %d attempts: %s", key, sh.attempts, reportErr))
		return nil
	}
	sh.state = shardPending
	sh.notBefore = now.Add(jobs.Backoff(sh.attempts-1, sh.jitter))
	return nil
}

// CreateSweep admits the spec — within the service's default limits,
// before anything is planned or journaled — plans a sweep from it and
// makes its shards leasable. It returns the sweep id and shard count.
func (c *Coordinator) CreateSweep(spec Spec) (string, int, error) {
	if err := spec.Options().Validate(core.DefaultLimits()); err != nil {
		return "", 0, fmt.Errorf("cluster: %w", err)
	}
	spec = spec.withDefaults()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepSeq++
	sw := c.createSweepLocked(fmt.Sprintf("s%d", c.sweepSeq), spec)
	return sw.id, len(sw.shards), nil
}

// mergeSweep concatenates the per-cell fragments into whole figures in
// plan order — which is the sequential drivers' iteration order, so
// the merged figures are bit-identical to a single-node run.
func mergeSweep(sw *sweep) map[string]*core.Figure {
	merged := make(map[string]*core.Figure, len(sw.spec.Figures))
	for _, sh := range sw.shards {
		f := merged[sh.cell.Figure]
		if f == nil {
			f = &core.Figure{ID: sh.fragment.ID, Title: sh.fragment.Title}
			merged[sh.cell.Figure] = f
		}
		f.Rows = append(f.Rows, sh.fragment.Rows...)
	}
	return merged
}

// SweepResult is a sweep's observable state.
type SweepResult struct {
	ID    string `json:"id"`
	State string `json:"state"` // running, done, failed
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
	// Figures maps figure id to the merged figure, present once State
	// is "done".
	Figures map[string]*core.Figure `json:"-"`
}

// Sweep returns the sweep's current state (and merged figures once
// done).
func (c *Coordinator) Sweep(id string) (SweepResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.now())
	sw, ok := c.sweeps[id]
	if !ok {
		return SweepResult{}, fmt.Errorf("%w: %q", ErrUnknownSweep, id)
	}
	res := SweepResult{
		ID: sw.id, State: sw.state(), Done: sw.done, Total: len(sw.shards), Error: sw.err,
	}
	if sw.merged != nil {
		res.Figures = sw.merged
	}
	return res, nil
}

// expireLocked lapses overdue leases back to pending (consuming retry
// budget) and drops workers that went silent. c.mu must be held.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > workerTTL {
			delete(c.workers, id)
		}
	}
	for _, id := range c.sweepIDs {
		sw := c.sweeps[id]
		if sw.terminal() {
			continue
		}
		for _, sh := range sw.shards {
			if sh.state != shardLeased || now.Before(sh.leaseExpiry) {
				continue
			}
			c.st.Reassignments++
			sh.reassigned++
			sh.worker = ""
			if sh.attempts > retryBudget {
				c.st.SweepsFailed++
				c.sweepFailedLocked(sw, sh, fmt.Sprintf("shard %s lost its lease on attempt %d (budget %d)",
					sh.cell.Key(), sh.attempts, retryBudget+1))
				break
			}
			// Worker loss is not load: re-offer immediately, no backoff.
			sh.state = shardPending
			sh.notBefore = now
		}
	}
}

// retainLocked forgets the oldest terminal sweeps beyond retainSweeps.
// c.mu must be held.
func (c *Coordinator) retainLocked() {
	terminal := 0
	for _, id := range c.sweepIDs {
		if c.sweeps[id].terminal() {
			terminal++
		}
	}
	if terminal <= retainSweeps {
		return
	}
	kept := c.sweepIDs[:0]
	for _, id := range c.sweepIDs {
		if terminal > retainSweeps && c.sweeps[id].terminal() {
			delete(c.sweeps, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	c.sweepIDs = kept
}

// LeaseStatus is one in-flight lease in a status snapshot.
type LeaseStatus struct {
	SweepID  string  `json:"sweep_id"`
	Key      string  `json:"key"`
	Worker   string  `json:"worker"`
	AgeMs    float64 `json:"age_ms"`
	ExpireMs float64 `json:"expires_in_ms"`
	Attempts int     `json:"attempts"`
}

// WorkerStatus is one registered worker in a status snapshot.
type WorkerStatus struct {
	ID         string  `json:"id"`
	Addr       string  `json:"addr,omitempty"`
	LastSeenMs float64 `json:"last_seen_ms"`
	Leases     int     `json:"leases"`
}

// SweepStatus is one sweep in a status snapshot.
type SweepStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Done       int    `json:"done"`
	Total      int    `json:"total"`
	Reassigned int    `json:"reassigned_shards"`
	Error      string `json:"error,omitempty"`
}

// Status is the merged-metrics view served on /cluster/status.
type Status struct {
	// Epoch is the coordinator generation workers must echo.
	Epoch   uint64         `json:"epoch"`
	Workers []WorkerStatus `json:"workers"`
	Leases  []LeaseStatus  `json:"leases"`
	Sweeps  []SweepStatus  `json:"sweeps"`
	Counters
}

// Counters are the coordinator's counters since construction, the tail
// of its Status.
type Counters struct {
	Grants          uint64 `json:"grants"`
	Reassignments   uint64 `json:"reassignments"`
	FailedAttempts  uint64 `json:"failed_attempts"`
	CompletedShards uint64 `json:"completed_shards"`
	SweepsDone      uint64 `json:"sweeps_done"`
	SweepsFailed    uint64 `json:"sweeps_failed"`
	// JournalErrors counts durable records that failed to append; each
	// degraded durability but never a sweep.
	JournalErrors uint64 `json:"journal_errors,omitempty"`
}

// StatusSnapshot reports workers (with lease ages), in-flight shards
// and lifetime counters.
func (c *Coordinator) StatusSnapshot() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(now)
	st := Status{Epoch: c.epoch, Counters: c.st}
	leasesByWorker := map[string]int{}
	for _, id := range c.sweepIDs {
		sw := c.sweeps[id]
		st.Sweeps = append(st.Sweeps, SweepStatus{
			ID: sw.id, State: sw.state(), Done: sw.done, Total: len(sw.shards),
			Reassigned: sweepReassigned(sw), Error: sw.err,
		})
		for _, sh := range sw.shards {
			if sh.state != shardLeased {
				continue
			}
			leasesByWorker[sh.worker]++
			st.Leases = append(st.Leases, LeaseStatus{
				SweepID: sw.id, Key: sh.cell.Key(), Worker: sh.worker,
				AgeMs:    float64(now.Sub(sh.leaseExpiry.Add(-leaseTTL))) / float64(time.Millisecond),
				ExpireMs: float64(sh.leaseExpiry.Sub(now)) / float64(time.Millisecond),
				Attempts: sh.attempts,
			})
		}
	}
	// expireLocked has dropped the silent workers; list the rest by id.
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := c.workers[id]
		st.Workers = append(st.Workers, WorkerStatus{
			ID: w.id, Addr: w.addr,
			LastSeenMs: float64(now.Sub(w.lastSeen)) / float64(time.Millisecond),
			Leases:     leasesByWorker[w.id],
		})
	}
	return st
}

func sweepReassigned(sw *sweep) int {
	n := 0
	for _, sh := range sw.shards {
		n += sh.reassigned
	}
	return n
}
