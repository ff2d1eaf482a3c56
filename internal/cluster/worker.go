package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/faultinject"
	"repro/internal/jobs"
)

// ErrRegisterFailed reports that the worker could not register with the
// coordinator before its context was canceled.
var ErrRegisterFailed = errors.New("cluster: worker registration failed")

// WorkerConfig configures a cluster worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (required).
	Coordinator string
	// Addr is the worker's advertised address, informational only —
	// all traffic is worker-initiated, so workers behind NAT work.
	Addr string
	// Queue runs shard jobs; required. Routing shards through the jobs
	// queue buys the same panic recovery, retry accounting and metrics
	// the single-node pipeline has.
	Queue *jobs.Queue
	// Cache supplies baselines to the figure drivers via
	// core.Options.Experiments, shared with the worker's local API and
	// across the cells it runs; required.
	Cache *core.ExperimentCache
	// Log receives lease lifecycle lines; nil discards them.
	Log *log.Logger
}

const (
	// shardJobRetries is the local jobs.Spec retry budget per leased
	// shard; the coordinator's retryBudget sits on top.
	shardJobRetries = 2
	// pollInterval is the idle lease-poll period, and the pause between
	// failed registrations.
	pollInterval = 200 * time.Millisecond
)

// httpClient carries every worker and Client request to a coordinator.
var httpClient = &http.Client{Timeout: 30 * time.Second}

// Worker polls a coordinator for shard leases, runs each shard through
// its local jobs queue, and reports fragments back. Construct with
// NewWorker and drive with Run.
type Worker struct {
	cfg  WorkerConfig
	poll time.Duration // pollInterval; the package's tests shorten it

	mu    sync.Mutex
	id    string
	ttl   time.Duration
	epoch uint64      // coordinator generation from the last register
	held  []ShardRef  // in-flight leases (at most one today)
	seq   int         // request-id counter
	st    WorkerStats // all but ID, which Stats fills in
}

// NewWorker validates the config and returns an unstarted worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("cluster: worker needs a coordinator URL")
	}
	if cfg.Queue == nil || cfg.Cache == nil {
		return nil, fmt.Errorf("cluster: worker needs a jobs queue and a baseline cache")
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	return &Worker{cfg: cfg, poll: pollInterval}, nil
}

// WorkerStats counts one worker's shard activity.
type WorkerStats struct {
	ID           string `json:"id"`
	ShardsDone   uint64 `json:"shards_done"`
	ShardsFailed uint64 `json:"shards_failed"`
	LeasesLost   uint64 `json:"leases_lost"`
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.st
	st.ID = w.id
	return st
}

// Run registers with the coordinator and processes leases until ctx is
// canceled; it returns ctx.Err() then, or an earlier terminal error.
// The heartbeat loop runs alongside and extends in-flight leases.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		w.heartbeatLoop(hbCtx)
	}()
	defer func() {
		stopHB()
		hbDone.Wait()
	}()

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, err := w.lease(ctx)
		if err != nil {
			if errors.Is(err, ErrUnknownWorker) || errors.Is(err, ErrEpochMismatch) {
				// Coordinator forgot us (restart, TTL expiry) or moved to
				// a new epoch; re-register and pick up the new generation.
				if err := w.register(ctx); err != nil {
					return err
				}
				continue
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("lease error: %v", err)
			if !jobs.Sleep(ctx, w.poll) {
				return ctx.Err()
			}
			continue
		}
		if grant == nil {
			if !jobs.Sleep(ctx, w.poll) {
				return ctx.Err()
			}
			continue
		}
		w.runShard(ctx, grant)
	}
}

// register obtains (or refreshes) the worker's id, retrying with the
// poll interval until ctx cancels.
func (w *Worker) register(ctx context.Context) error {
	w.mu.Lock()
	id := w.id
	w.mu.Unlock()
	for {
		var resp registerResponse
		err := w.post(ctx, "/cluster/register", registerRequest{WorkerID: id, Addr: w.cfg.Addr}, &resp)
		if err == nil {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.ttl = leaseTTLFrom(resp)
			w.epoch = resp.Epoch
			w.mu.Unlock()
			w.logf("registered as %s (lease ttl %v)", resp.WorkerID, leaseTTLFrom(resp))
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%w: %v", ErrRegisterFailed, err)
		}
		w.logf("register: %v (retrying)", err)
		if !jobs.Sleep(ctx, w.poll) {
			return fmt.Errorf("%w: %v", ErrRegisterFailed, ctx.Err())
		}
	}
}

func (w *Worker) lease(ctx context.Context) (*Grant, error) {
	w.mu.Lock()
	id, epoch := w.id, w.epoch
	w.mu.Unlock()
	var resp leaseResponse
	if err := w.post(ctx, "/cluster/lease", leaseRequest{WorkerID: id, Epoch: epoch}, &resp); err != nil {
		return nil, err
	}
	if resp.None || resp.Grant == nil {
		return nil, nil
	}
	return resp.Grant, nil
}

// runShard executes one granted cell through the local jobs queue and
// reports the outcome. The job body fires the cluster.shard fault site
// first, so chaos drills can kill attempts inside the recovery scope.
func (w *Worker) runShard(ctx context.Context, g *Grant) {
	w.mu.Lock()
	w.seq++
	rid := fmt.Sprintf("%s-%s-a%d", w.id, g.Key, w.seq)
	w.held = append(w.held, ShardRef{SweepID: g.SweepID, Key: g.Key})
	w.mu.Unlock()
	defer w.dropHeld(g.SweepID, g.Key)

	fragment, err := w.execute(ctx, g, rid)
	if ctx.Err() != nil {
		return // canceled mid-shard: let the lease expire and re-assign
	}
	rep := reportRequest{SweepID: g.SweepID, Key: g.Key}
	if err != nil {
		rep.Error = err.Error()
		w.bump(&w.st.ShardsFailed)
		w.logf("shard %s failed: %v", g.Key, err)
	} else {
		rep.Figure = fragment
		w.bump(&w.st.ShardsDone)
	}
	w.mu.Lock()
	rep.WorkerID, rep.Epoch = w.id, w.epoch
	w.mu.Unlock()
	err = w.post(ctx, "/cluster/report", rep, &struct{}{})
	if errors.Is(err, ErrEpochMismatch) {
		// The coordinator restarted under us. The fragment is still
		// bit-identical and reports are idempotent, so re-register into
		// the new epoch and hand it over rather than wasting the work.
		if rerr := w.register(ctx); rerr == nil {
			w.mu.Lock()
			rep.WorkerID, rep.Epoch = w.id, w.epoch
			w.mu.Unlock()
			err = w.post(ctx, "/cluster/report", rep, &struct{}{})
		}
	}
	if err != nil {
		w.bump(&w.st.LeasesLost)
		w.logf("report %s: %v", g.Key, err)
	}
}

// execute runs the cell's figure restricted to its workload, under the
// jobs queue's recovery and retry machinery, and returns the fragment's
// canonical WriteJSON bytes. When ctx ends first the job is canceled
// too, so a worker shutting down mid-shard stops within a repetition
// instead of finishing a fragment nobody will report.
func (w *Worker) execute(ctx context.Context, g *Grant, rid string) (json.RawMessage, error) {
	spec := jobs.Spec{Kind: "cluster-shard", RequestID: rid, Retries: shardJobRetries}
	id, err := w.cfg.Queue.SubmitSpec(spec, func(jctx context.Context) (any, error) {
		if err := faultinject.Fire(jctx, faultinject.SiteClusterShard); err != nil {
			return nil, err
		}
		opts := g.Spec.Options()
		opts.Workloads = []string{g.Cell.Workload}
		opts.Experiments = func(cfg core.ExperimentConfig) (*core.Experiment, error) {
			exp, _, err := w.cfg.Cache.GetOrBuild(jctx, cfg)
			return exp, err
		}
		fig, err := core.RunFigure(jctx, g.Cell.Figure, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := fig.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return json.RawMessage(buf.Bytes()), nil
	})
	if err != nil {
		return nil, err
	}
	snap, found, err := w.cfg.Queue.Wait(ctx, id)
	if err != nil || !found {
		w.cfg.Queue.Cancel(id) // Wait fails only when ctx ends; a no-op for a job already gone
		return nil, fmt.Errorf("cluster: shard job %s lost: %w", id, err)
	}
	if snap.State != jobs.Succeeded {
		return nil, fmt.Errorf("cluster: shard job %s %s: %s", id, snap.State, snap.Error)
	}
	raw, ok := snap.Result.(json.RawMessage)
	if !ok {
		return nil, fmt.Errorf("cluster: shard job %s returned %T", id, snap.Result)
	}
	return raw, nil
}

// heartbeatLoop extends in-flight leases every ttl/3. A drop response
// means the coordinator re-assigned the shard (our lease lapsed); the
// worker keeps computing — its late report is accepted idempotently —
// but counts the loss.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		ttl := w.ttl
		w.mu.Unlock()
		interval := ttl / 3
		if interval <= 0 {
			interval = time.Second
		}
		if !jobs.Sleep(ctx, interval) {
			return
		}
		w.mu.Lock()
		req := heartbeatRequest{WorkerID: w.id, Epoch: w.epoch, Held: append([]ShardRef(nil), w.held...)}
		w.mu.Unlock()
		var resp heartbeatResponse
		if err := w.post(ctx, "/cluster/heartbeat", req, &resp); err != nil {
			if ctx.Err() != nil {
				return
			}
			w.logf("heartbeat: %v", err)
			continue
		}
		if len(resp.Drop) > 0 {
			w.bump(&w.st.LeasesLost)
		}
	}
}

func (w *Worker) dropHeld(sweepID, key string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	kept := w.held[:0]
	for _, ref := range w.held {
		if ref.SweepID != sweepID || ref.Key != key {
			kept = append(kept, ref)
		}
	}
	w.held = kept
}

func (w *Worker) bump(counter *uint64) {
	w.mu.Lock()
	*counter++
	w.mu.Unlock()
}

func (w *Worker) logf(format string, args ...any) {
	w.cfg.Log.Printf("worker: "+format, args...)
}

// post sends one JSON request to the coordinator and decodes the
// response, mapping protocol error bodies back to sentinel errors and
// tagging traffic with a request id so coordinator logs line up.
func (w *Worker) post(ctx context.Context, path string, body, out any) error {
	return postJSON(ctx, w.cfg.Coordinator+path, body, out)
}

// postJSON is the shared client-side call: used by Worker and Client.
func postJSON(ctx context.Context, url string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if rid := envelope.RequestIDFrom(ctx); rid != "" {
		req.Header.Set(envelope.RequestIDHeader, rid)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if rid := envelope.RequestIDFrom(ctx); rid != "" {
		req.Header.Set(envelope.RequestIDHeader, rid)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

// decodeResponse maps non-2xx protocol bodies back onto the package
// sentinels — via the machine-readable code field, never the message
// text — so callers can errors.Is across the wire.
func decodeResponse(resp *http.Response, out any) error {
	if resp.StatusCode >= 300 {
		var body envelope.ErrorBody
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &body) == nil && body.Error != "" {
			for _, p := range protocolErrors {
				if p.code == body.Code {
					return fmt.Errorf("%w (http %d, rid %s)", p.err, resp.StatusCode, body.RequestID)
				}
			}
			return fmt.Errorf("cluster: http %d: %s (rid %s)", resp.StatusCode, body.Error, body.RequestID)
		}
		return fmt.Errorf("cluster: http %d", resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
