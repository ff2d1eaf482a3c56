// Package jobs is the daemon's execution engine: a bounded work queue
// drained by a fixed worker pool, with per-job deadlines, cooperative
// cancellation and a graceful drain for SIGTERM handling. Simulation
// requests accepted by internal/server become jobs here; the heavy
// lifting inside a job fans out further via
// core.RunRepeatedParallelContext.
//
// The pool is self-healing: a panicking job body is recovered and
// converted into a typed *JobError with the goroutine stack captured
// (the worker survives), and failures that declare themselves
// retryable — injected faults, recovered panics, anything exposing
// Retryable() bool — are re-run with exponential backoff and jitter up
// to the submission's retry budget (Spec.Retries). The jobs.worker
// fault-injection site (internal/faultinject) fires at the start of
// every attempt, inside the recovery scope, so the whole path can be
// exercised deterministically.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/rng"
)

// State is a job's lifecycle position.
type State string

// Job states. Queued and Running are live; the rest are terminal.
const (
	Queued    State = "queued"
	Running   State = "running"
	Succeeded State = "succeeded"
	Failed    State = "failed"
	Canceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Succeeded || s == Failed || s == Canceled
}

// Func is the work a job performs. It must honor ctx: the queue
// cancels it on Cancel, on the per-job deadline, and never reuses it.
// The returned value is stored as the job's result and must be
// JSON-marshalable when served over HTTP.
type Func func(ctx context.Context) (any, error)

// Snapshot is an observer's copy of a job. Result is shared, not
// deep-copied; treat it as read-only.
type Snapshot struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// RequestID is the X-Request-Id of the submission, when one was
	// attached (Spec.RequestID).
	RequestID string     `json:"request_id,omitempty"`
	State     State      `json:"state"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	Result    any        `json:"result,omitempty"`
	// Attempts is how many times the job body ran (1 + retries used).
	Attempts int `json:"attempts,omitempty"`
	// Stack is the captured goroutine stack when the job failed
	// terminally on a recovered panic.
	Stack string `json:"stack,omitempty"`
}

// Stats counts queue activity since construction.
type Stats struct {
	// Depth is the number of jobs waiting for a worker.
	Depth int `json:"depth"`
	// Capacity is the queue bound.
	Capacity int `json:"capacity"`
	// Workers is the pool size.
	Workers int `json:"workers"`
	// Running is the number of jobs currently executing.
	Running int `json:"running"`
	// Submitted counts accepted jobs.
	Submitted uint64 `json:"submitted"`
	// Rejected counts submissions refused because the queue was full
	// or draining.
	Rejected uint64 `json:"rejected"`
	// Succeeded, Failed and Canceled count terminal outcomes.
	Succeeded uint64 `json:"succeeded"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	// PanicsRecovered counts job attempts that panicked and were
	// converted to a *JobError instead of crashing the worker.
	PanicsRecovered uint64 `json:"panics_recovered"`
	// Retries counts extra attempts spent re-running retryable
	// failures.
	Retries uint64 `json:"retries"`
	// Abandoned counts queued-but-unstarted jobs given up on when a
	// drain deadline expired; each is logged with its request id, and
	// with a journal configured each is recoverable at restart.
	Abandoned uint64 `json:"abandoned"`
	// Recovered counts jobs re-enqueued from the journal at startup.
	Recovered uint64 `json:"recovered"`
	// WALErrors counts journal appends that failed (durability
	// degraded; the in-memory queue proceeded).
	WALErrors uint64 `json:"wal_errors"`
}

// Config sizes the queue.
type Config struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Capacity bounds the number of queued (not yet running) jobs;
	// <= 0 selects 64. Submissions beyond it fail with ErrQueueFull.
	Capacity int
	// Timeout is the per-job deadline measured from when a worker
	// picks the job up; 0 means none.
	Timeout time.Duration
	// Retain bounds the number of finished jobs kept for polling;
	// <= 0 selects 512. The oldest finished jobs are forgotten first.
	Retain int
	// Journal, when non-nil, receives a durable record when a job with
	// a Payload is accepted and when it finishes (see wal.go). A
	// restarted daemon replays it with Recover to re-enqueue incomplete
	// jobs under their original ids.
	Journal journal.Appender
	// Log receives operational messages (abandoned jobs, journal append
	// failures); nil silences them.
	Log *log.Logger
}

// Sentinel submission errors.
var (
	// ErrQueueFull reports a bounded queue at capacity. Callers (the
	// HTTP layer) match it with errors.Is to answer 429.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining reports a queue that stopped accepting work.
	ErrDraining = errors.New("jobs: queue draining")
)

// Retryable is implemented by errors that may succeed when the same
// work is re-run: injected faults (internal/faultinject), recovered
// panics (*JobError), and repetition failures (core.RepetitionError).
type Retryable interface{ Retryable() bool }

// retryable reports whether any error in err's chain declares itself
// retryable. Cancellation and deadline expiry are never retryable,
// whatever the chain says: the caller asked the work to stop.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var r Retryable
	return errors.As(err, &r) && r.Retryable()
}

// JobError is the typed failure produced when a job attempt panics:
// the panic value plus the captured goroutine stack. It is retryable —
// a panic from an injected or transient fault deserves the same
// bounded re-run a transient error gets; a deterministic panic simply
// exhausts the budget and fails with the stack attached.
type JobError struct {
	// PanicValue is the value the job body panicked with.
	PanicValue any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *JobError) Error() string {
	return fmt.Sprintf("jobs: recovered panic: %v", e.PanicValue)
}

// Retryable marks recovered panics eligible for the retry budget.
func (e *JobError) Retryable() bool { return true }

// Spec describes a submission: its kind label and retry policy.
type Spec struct {
	// Kind labels the job for observers.
	Kind string
	// RequestID correlates the job with the HTTP request (or cluster
	// shard attempt) that submitted it; surfaced in Snapshot so
	// cross-node lease traffic can be traced end to end.
	RequestID string
	// Tenant attributes the job to a tenant for quota accounting and
	// result-store ownership; journaled and restored on recovery.
	Tenant string
	// Retries is how many times a retryable failure is re-run after
	// the first attempt; 0 disables retry.
	Retries int
	// Payload is the replayable request behind the job's Func, stored
	// verbatim in the journal's accepted record. Funcs are closures and
	// cannot be persisted; recovery rebuilds them from Kind + Payload.
	// Jobs submitted without a payload run normally but are not
	// journaled: nothing could rebuild them after a crash, and an
	// unfinished one would keep every restart from compacting.
	Payload json.RawMessage
}

const (
	baseBackoff = 10 * time.Millisecond
	maxBackoff  = 2 * time.Second
)

// Backoff returns the jittered exponential backoff before retry
// attempt (0-based): uniformly drawn from [d/2, d] where d doubles
// from baseBackoff up to maxBackoff. The jitter decorrelates retry
// storms; jr is a per-job stream seeded from the job id (see
// jitterStream), so sleep lengths are reproducible given the id —
// regression note for detrand: this used to draw from the global
// math/rand/v2 state, the one unseeded entropy source in the module.
// Exported so other retry loops (the cluster coordinator's shard
// re-offers) share the same backoff discipline.
func Backoff(attempt int, jr *rng.Source) time.Duration {
	d := baseBackoff
	for i := 0; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	half := min(d, maxBackoff) / 2
	return half + time.Duration(jr.Intn(int(half)+1))
}

// jitterStream seeds a backoff jitter stream from a job id. Distinct
// ids land on decorrelated streams (that is all the jitter needs), and
// the same id always produces the same sleep schedule, keeping retry
// timing inside the determinism contract the rest of the pipeline
// honours.
func jitterStream(id string) *rng.Source {
	h := fnv.New64a()
	h.Write([]byte(id))
	return rng.New(h.Sum64())
}

// job is the internal mutable record behind a Snapshot.
type job struct {
	id        string
	spec      Spec
	fn        Func
	state     State
	created   time.Time
	started   time.Time
	finished  time.Time
	err       string
	stack     string
	attempts  int
	result    any
	cancel    context.CancelFunc // set while running
	abandoned bool               // counted by a failed drain already
	done      chan struct{}      // closed on terminal transition
}

// Queue runs submitted jobs on a worker pool. Construct with New.
type Queue struct {
	cfg  Config
	work chan *job
	wg   sync.WaitGroup
	seq  atomic.Uint64

	mu       sync.Mutex
	st       Stats // all but Depth, which Stats fills in
	jobs     map[string]*job
	finished []string // ids in completion order, for retention
	draining bool
}

// New builds the queue and starts its workers.
func New(cfg Config) *Queue {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 512
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	q := &Queue{
		cfg:  cfg,
		work: make(chan *job, cfg.Capacity),
		st:   Stats{Capacity: cfg.Capacity, Workers: cfg.Workers},
		jobs: map[string]*job{},
	}
	for i := 0; i < cfg.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// SubmitSpec enqueues fn under the given spec (kind label and retry
// policy) and returns the new job's id. It never blocks: a full queue
// returns ErrQueueFull, a draining queue ErrDraining.
func (q *Queue) SubmitSpec(spec Spec, fn Func) (string, error) {
	return q.submit(q.newID(), spec, fn, false)
}

// submit is the shared enqueue path behind SubmitSpec and
// SubmitRecovered.
func (q *Queue) submit(id string, spec Spec, fn Func, recovered bool) (string, error) {
	j := &job{
		id:      id,
		spec:    spec,
		fn:      fn,
		state:   Queued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	q.mu.Lock()
	if q.draining {
		q.st.Rejected++
		q.mu.Unlock()
		return "", ErrDraining
	}
	select {
	case q.work <- j:
		q.jobs[j.id] = j
		q.st.Submitted++
		if recovered {
			q.st.Recovered++
		}
		q.journalLocked(j, walRecord{
			Op:        opAccepted,
			ID:        j.id,
			Kind:      spec.Kind,
			RequestID: spec.RequestID,
			Tenant:    spec.Tenant,
			Retries:   spec.Retries,
			Payload:   spec.Payload,
		})
		q.mu.Unlock()
		return j.id, nil
	default:
		q.st.Rejected++
		q.mu.Unlock()
		return "", ErrQueueFull
	}
}

// newID returns a unique, unguessable job id.
func (q *Queue) newID() string {
	var r [6]byte
	if _, err := rand.Read(r[:]); err != nil {
		// crypto/rand failing is unrecoverable misconfiguration, but a
		// sequence-only id keeps the queue functional.
		return fmt.Sprintf("j%06d", q.seq.Add(1))
	}
	return fmt.Sprintf("j%06d-%s", q.seq.Add(1), hex.EncodeToString(r[:]))
}

// Get returns a snapshot of the job, or ok=false for unknown (or
// forgotten) ids.
func (q *Queue) Get(id string) (Snapshot, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return snapshotLocked(j), true
}

func snapshotLocked(j *job) Snapshot {
	s := Snapshot{
		ID:        j.id,
		Kind:      j.spec.Kind,
		RequestID: j.spec.RequestID,
		State:     j.state,
		Created:   j.created,
		Error:     j.err,
		Result:    j.result,
		Attempts:  j.attempts,
		Stack:     j.stack,
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	return s
}

// Cancel asks the job to stop. A queued job is marked canceled and
// skipped when a worker reaches it; a running job has its context
// canceled and finishes when its Func returns. Cancel reports whether
// the job existed and was still live.
func (q *Queue) Cancel(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok || j.state.Terminal() {
		return false
	}
	if j.state == Queued {
		q.finishLocked(j, Canceled, context.Canceled)
		return true
	}
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

// Wait blocks until the job reaches a terminal state and returns its
// final snapshot, or ctx.Err() if ctx expires first (the job keeps
// running). Unknown (or already forgotten) ids return ok=false
// immediately. Cluster workers use this to run shard work through the
// queue — panic recovery, retries and metrics included — without
// polling.
func (q *Queue) Wait(ctx context.Context, id string) (Snapshot, bool, error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return Snapshot{}, false, nil
	}
	done := j.done
	q.mu.Unlock()
	select {
	case <-done:
	case <-ctx.Done():
		return Snapshot{}, true, ctx.Err()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return snapshotLocked(j), true, nil
}

// Depth returns the number of jobs waiting for a worker.
func (q *Queue) Depth() int { return len(q.work) }

// Stats returns a snapshot of the queue counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.st
	st.Depth = len(q.work)
	return st
}

// Drain stops accepting submissions, lets queued and running jobs
// finish, and returns when the pool is idle or ctx expires (the
// workers keep finishing in the background in that case). When the
// deadline expires with jobs still queued, those jobs are abandoned in
// practice — the caller is about to exit — so each is logged with its
// id, kind and request id and counted in Stats.Abandoned rather than
// vanishing silently. With a journal configured they carry no terminal
// record, so a restart recovers them.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	already := q.draining
	q.draining = true
	q.mu.Unlock()
	if !already {
		close(q.work)
	}
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		q.noteAbandoned()
		return ctx.Err()
	}
}

// noteAbandoned logs and counts every job still queued when a drain
// deadline expired.
func (q *Queue) noteAbandoned() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.jobs {
		if j.state != Queued || j.abandoned {
			continue
		}
		j.abandoned = true
		q.st.Abandoned++
		q.cfg.Log.Printf("jobs: abandoning queued job id=%s kind=%s request_id=%s (drain deadline expired)",
			j.id, j.spec.Kind, j.spec.RequestID)
	}
}

// worker drains the channel until Drain closes it.
func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.work {
		q.run(j)
	}
}

// run executes one job with its deadline attached, re-running
// retryable failures with backoff up to the submission's budget.
func (q *Queue) run(j *job) {
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if q.cfg.Timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), q.cfg.Timeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	defer cancel()

	q.mu.Lock()
	if j.state != Queued { // canceled while waiting
		q.mu.Unlock()
		return
	}
	j.state = Running
	j.started = time.Now()
	j.cancel = cancel
	q.st.Running++
	q.mu.Unlock()

	var (
		res      any
		err      error
		attempts int
		jitter   *rng.Source
	)
	for attempt := 0; ; attempt++ {
		res, err = q.attempt(ctx, j)
		attempts = attempt + 1
		if err == nil || ctx.Err() != nil || !retryable(err) || attempt >= j.spec.Retries {
			break
		}
		q.mu.Lock()
		q.st.Retries++
		q.mu.Unlock()
		if jitter == nil {
			jitter = jitterStream(j.id)
		}
		if !Sleep(ctx, Backoff(attempt, jitter)) {
			// Canceled or timed out while backing off; the last
			// failure stands but the job finishes as canceled below.
			break
		}
	}

	q.mu.Lock()
	q.st.Running--
	j.cancel = nil
	j.attempts = attempts
	switch {
	case err == nil:
		j.result = res
		q.finishLocked(j, Succeeded, nil)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		q.finishLocked(j, Canceled, err)
	case ctx.Err() != nil:
		// The retry loop was abandoned mid-backoff by cancellation or
		// the deadline; report the job canceled, keeping the failure
		// it was retrying for the record.
		q.finishLocked(j, Canceled, fmt.Errorf("%v (while retrying: %w)", ctx.Err(), err))
	default:
		var je *JobError
		if errors.As(err, &je) {
			j.stack = je.Stack
		}
		q.finishLocked(j, Failed, err)
	}
	q.mu.Unlock()
}

// attempt runs the job body once, firing the jobs.worker fault site
// and converting a panic into a retryable *JobError with the stack
// captured, so one misbehaving job cannot take down its worker.
func (q *Queue) attempt(ctx context.Context, j *job) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			q.mu.Lock()
			q.st.PanicsRecovered++
			q.mu.Unlock()
			res = nil
			err = &JobError{PanicValue: r, Stack: string(debug.Stack())}
		}
	}()
	if err := faultinject.Fire(ctx, faultinject.SiteJobWorker); err != nil {
		return nil, err
	}
	return j.fn(ctx)
}

// Sleep waits d or until ctx is done; it reports whether the full wait
// elapsed.
func Sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// finishLocked moves a job to a terminal state and applies retention.
// q.mu must be held. A job already terminal is left untouched, so a
// cancellation racing a worker's own completion can never
// double-complete (double-count, double-retain) the job.
func (q *Queue) finishLocked(j *job, s State, err error) {
	if j.state.Terminal() {
		return
	}
	j.state = s
	j.finished = time.Now()
	if j.done != nil {
		close(j.done)
	}
	if err != nil {
		j.err = err.Error()
	}
	switch s {
	case Succeeded:
		q.st.Succeeded++
	case Failed:
		q.st.Failed++
	case Canceled:
		q.st.Canceled++
	}
	q.journalLocked(j, walRecord{Op: terminalOp(s), ID: j.id})
	q.finished = append(q.finished, j.id)
	for len(q.finished) > q.cfg.Retain {
		delete(q.jobs, q.finished[0])
		q.finished = q.finished[1:]
	}
}
