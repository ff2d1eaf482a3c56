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

// Config tunes the coordinator.
type Config struct {
	// LeaseTTL is how long a granted shard stays leased without a
	// heartbeat before it is re-assigned (default 10s).
	LeaseTTL time.Duration
	// StealAfter is how long a pending shard waits for its preferred
	// (consistent-hash) worker before any idle worker may take it
	// (default 2s). Placement is an affinity optimization for simcache
	// warmth, never a correctness constraint.
	StealAfter time.Duration
	// WorkerTTL is how long a registered worker survives without any
	// traffic before it is dropped from placement (default 30s).
	WorkerTTL time.Duration
	// Retry is the per-shard retry policy, reusing the jobs backoff
	// discipline: Retries extra attempts (default 3) after the first,
	// exponential backoff with per-cell deterministic jitter between
	// re-offers. Lease expiries consume the same budget — an attempt
	// that vanished is still an attempt.
	Retry jobs.Spec
	// RetainSweeps bounds how many terminal sweeps are kept for
	// polling (default 16); the oldest are forgotten first.
	RetainSweeps int
	// Now supplies timestamps; nil uses time.Now (injectable for
	// deterministic tests).
	Now func() time.Time
	// Journal, when set, receives one durable record per recovery-
	// relevant state transition (sweep created, lease granted, shard
	// done/failed, sweep failed). OpenCoordinator wires a journal.Writer
	// here and replays it on restart; tests may supply any appender.
	Journal journal.Appender
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.StealAfter <= 0 {
		c.StealAfter = 2 * time.Second
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 30 * time.Second
	}
	if c.Retry.Retries == 0 {
		c.Retry.Retries = 3
	}
	if c.RetainSweeps <= 0 {
		c.RetainSweeps = 16
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

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
	worker       string
	leaseExpiry  time.Time
	pendingSince time.Time
	notBefore    time.Time
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
	id      string
	spec    Spec // defaults resolved
	created time.Time
	shards  []*shard // plan (merge) order
	byKey   map[string]*shard
	done    int
	failed  bool
	err     string
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
	id         string
	addr       string
	registered time.Time
	lastSeen   time.Time
}

// Coordinator shards sweeps across registered workers. All methods are
// safe for concurrent use; construct with NewCoordinator.
type Coordinator struct {
	cfg Config

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

	// counters for /cluster/status.
	grants          uint64
	reassignments   uint64
	failedAttempts  uint64
	completedShards uint64
	sweepsDone      uint64
	sweepsFailed    uint64
	journalErrors   uint64
}

// NewCoordinator builds an empty coordinator.
func NewCoordinator(cfg Config) *Coordinator {
	return &Coordinator{
		cfg:     cfg.withDefaults(),
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
	now := c.cfg.Now()
	c.expireLocked(now)
	if workerID == "" {
		// The epoch keeps a minted id unique across restarts: a worker of
		// an earlier generation re-registers under the id it got then.
		c.workerSeq++
		workerID = fmt.Sprintf("e%d-w%d", c.epoch, c.workerSeq)
	}
	w, ok := c.workers[workerID]
	if !ok {
		w = &workerInfo{id: workerID, registered: now}
		c.workers[workerID] = w
	}
	w.addr = addr
	w.lastSeen = now
	return workerID, c.cfg.LeaseTTL
}

// Grant is one leased shard handed to a worker: the cell to run and
// the sweep spec to run it under.
type Grant struct {
	SweepID string `json:"sweep_id"`
	Key     string `json:"key"`
	Cell    Cell   `json:"cell"`
	Spec    Spec   `json:"spec"`
}

// Lease offers the next runnable shard to the worker, or nil when no
// work is available. Shards prefer their consistent-hash placement
// worker (warm simcache) and fall back to any worker after StealAfter.
func (c *Coordinator) Lease(workerID string) (*Grant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.expireLocked(now)
	w, ok := c.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorker, workerID)
	}
	w.lastSeen = now
	alive := c.aliveLocked(now)
	for _, id := range c.sweepIDs {
		sw := c.sweeps[id]
		if sw.terminal() {
			continue
		}
		for _, sh := range sw.shards {
			if sh.state != shardPending || now.Before(sh.notBefore) {
				continue
			}
			preferred := Place(sh.cell.Workload, alive)
			if preferred != workerID && preferred != "" && now.Sub(sh.pendingSince) < c.cfg.StealAfter {
				continue
			}
			sh.state = shardLeased
			sh.worker = workerID
			sh.attempts++
			sh.leaseExpiry = now.Add(c.cfg.LeaseTTL)
			c.grants++
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
	now := c.cfg.Now()
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
		sh.leaseExpiry = now.Add(c.cfg.LeaseTTL)
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
	now := c.cfg.Now()
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
		c.completedShards++
		if c.shardDoneLocked(sw, sh, fragment) {
			c.sweepsDone++
		}
		return nil
	}
	// Failure path: only the lease holder's word counts.
	if sh.state != shardLeased || sh.worker != workerID {
		return nil
	}
	c.failedAttempts++
	c.shardFailedLocked(sw, sh, sh.attempts, reportErr)
	if sh.attempts > c.cfg.Retry.Retries {
		c.sweepsFailed++
		c.sweepFailedLocked(sw, sh, fmt.Sprintf("shard %s failed after %d attempts: %s", key, sh.attempts, reportErr))
		return nil
	}
	sh.state = shardPending
	sh.pendingSince = now
	sh.notBefore = now.Add(c.cfg.Retry.Backoff(sh.attempts-1, sh.jitter))
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
	sw := c.createSweepLocked(fmt.Sprintf("s%d", c.sweepSeq), spec, c.cfg.Now())
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
	c.expireLocked(c.cfg.Now())
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
		if now.Sub(w.lastSeen) > c.cfg.WorkerTTL {
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
			c.reassignments++
			sh.reassigned++
			sh.worker = ""
			if sh.attempts > c.cfg.Retry.Retries {
				c.sweepsFailed++
				c.sweepFailedLocked(sw, sh, fmt.Sprintf("shard %s lost its lease on attempt %d (budget %d)",
					sh.cell.Key(), sh.attempts, c.cfg.Retry.Retries+1))
				break
			}
			// Worker loss is not load: re-offer immediately, no backoff.
			sh.state = shardPending
			sh.pendingSince = now
			sh.notBefore = now
		}
	}
}

// aliveLocked returns the sorted ids of workers seen within WorkerTTL.
// c.mu must be held.
func (c *Coordinator) aliveLocked(now time.Time) []string {
	ids := make([]string, 0, len(c.workers))
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.cfg.WorkerTTL {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// retainLocked forgets the oldest terminal sweeps beyond RetainSweeps.
// c.mu must be held.
func (c *Coordinator) retainLocked() {
	terminal := 0
	for _, id := range c.sweepIDs {
		if c.sweeps[id].terminal() {
			terminal++
		}
	}
	if terminal <= c.cfg.RetainSweeps {
		return
	}
	kept := c.sweepIDs[:0]
	for _, id := range c.sweepIDs {
		if terminal > c.cfg.RetainSweeps && c.sweeps[id].terminal() {
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
	// Counters since construction.
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
	now := c.cfg.Now()
	c.expireLocked(now)
	st := Status{
		Epoch:           c.epoch,
		Grants:          c.grants,
		Reassignments:   c.reassignments,
		FailedAttempts:  c.failedAttempts,
		CompletedShards: c.completedShards,
		SweepsDone:      c.sweepsDone,
		SweepsFailed:    c.sweepsFailed,
		JournalErrors:   c.journalErrors,
	}
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
				AgeMs:    float64(now.Sub(sh.leaseExpiry.Add(-c.cfg.LeaseTTL))) / float64(time.Millisecond),
				ExpireMs: float64(sh.leaseExpiry.Sub(now)) / float64(time.Millisecond),
				Attempts: sh.attempts,
			})
		}
	}
	for _, id := range c.aliveLocked(now) {
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
