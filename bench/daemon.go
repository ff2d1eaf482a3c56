package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/advise"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/simcache"
	"repro/internal/tenant"
)

// Daemon constants: cmd/cesimd's flag defaults, plus -data-dir and
// -tenant-jobs 1024 so admission runs and never rejects.
const (
	daemonQueue      = 64
	daemonRetain     = 512
	daemonJobTimeout = 15 * time.Minute
	daemonCacheBytes = 256 << 20
	daemonTenantJobs = 1024
	pollEvery        = time.Millisecond
)

// daemon is cesimd in this process: the same parts, wired in the same
// order as cmd/cesimd/main.go wires them with -data-dir, behind a real
// loopback listener. The bench arms no fault-injection plan.
type daemon struct {
	wal    *journal.Writer
	store  *simcache.Store
	queue  *jobs.Queue
	cache  *simcache.Cache
	adv    *advise.Service
	srv    *server.Server
	hs     *http.Server
	served chan error
	endpoint
	pending []jobs.PendingJob
	replay  journal.ReplayStats
}

// advisorConfig is what cesimd's -advise-* flag defaults build.
func advisorConfig() advise.Config {
	return advise.Config{
		Store: advise.StoreConfig{
			Estimator:         advise.EstimatorConfig{HalfLifeNanos: (4 * time.Hour).Nanoseconds()},
			MaxTenants:        1024,
			MaxNodesPerTenant: 4096,
		},
		MaxBatchEvents: 10000,
		CacheEntries:   1024,
	}
}

func quietLog() *log.Logger { return log.New(io.Discard, "", 0) }

// bootSteps times each step of a cesimd start; the restart_recovery
// workload reports them, every other workload only needs the daemon.
type bootSteps struct {
	recover, openWAL, openStore, build, resubmit, sync, compact time.Duration
	resubmitted                                                 int
}

// assemble performs cesimd's start-up up to "ready to listen". cesimd
// keeps walDir and storeDir side by side under -data-dir.
func assemble(ctx context.Context, walDir, storeDir string) (*daemon, bootSteps, error) {
	var st bootSteps
	d := &daemon{}
	var err error

	t := time.Now()
	d.pending, d.replay, err = jobs.Recover(ctx, walDir)
	if err != nil {
		return nil, st, err
	}
	st.recover = time.Since(t)

	t = time.Now()
	if d.wal, err = journal.Open(walDir, journal.Options{}); err != nil {
		return nil, st, err
	}
	st.openWAL = time.Since(t)

	t = time.Now()
	if d.store, err = simcache.OpenStore(storeDir); err != nil {
		return nil, st, err
	}
	st.openStore = time.Since(t)

	t = time.Now()
	d.queue = jobs.New(jobs.Config{
		Capacity: daemonQueue, Timeout: daemonJobTimeout, Retain: daemonRetain,
		Journal: d.wal, Log: quietLog(),
	})
	d.cache = simcache.New(daemonCacheBytes)
	d.adv = advise.NewService(advisorConfig())
	tenants := tenant.New(tenant.Config{Defaults: tenant.Limits{MaxJobs: daemonTenantJobs}})
	d.srv, err = server.New(server.Config{
		Queue: d.queue, Cache: d.cache, MaxNodes: 16384, MaxReps: 64, JobRetries: 2,
		Advisor: d.adv, ResultStore: d.store, Tenants: tenants, Journal: d.wal, Log: quietLog(),
	})
	if err != nil {
		return nil, st, err
	}
	st.build = time.Since(t)

	t = time.Now()
	st.resubmitted = d.srv.Resubmit(d.pending)
	st.resubmit = time.Since(t)

	t = time.Now()
	if err := d.wal.Sync(ctx); err != nil {
		return nil, st, err
	}
	st.sync = time.Since(t)

	t = time.Now()
	if _, err := d.wal.CompactBefore(); err != nil {
		return nil, st, err
	}
	st.compact = time.Since(t)
	return d, st, nil
}

// listen opens the loopback listener and starts serving.
func (d *daemon) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv, ReadHeaderTimeout: 10 * time.Second}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	return nil
}

// bootDaemon starts a listening daemon over a fresh data directory.
func bootDaemon(ctx context.Context, dataDir string) (*daemon, error) {
	d, _, err := assemble(ctx, filepath.Join(dataDir, "jobs-wal"), filepath.Join(dataDir, "store"))
	if err != nil {
		return nil, err
	}
	if err := d.listen(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close is cesimd's drain: stop the listener, let jobs finish, close
// the WAL.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if d.hs != nil {
		_ = d.hs.Shutdown(ctx) // drain below reports anything left running
		<-d.served
		d.client.CloseIdleConnections()
	}
	if d.queue != nil {
		_ = d.queue.Drain(ctx) // a timeout abandons the jobs, as cesimd does
	}
	if d.wal != nil {
		_ = d.wal.Close() // scratch directory, removed after the run
	}
}

// jobView is the part of a job snapshot the bench reads.
type jobView struct {
	ID       string          `json:"id"`
	State    jobs.State      `json:"state"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

// httpStats counts what the clients saw, for the server.* rows.
type httpStats struct {
	mu        sync.Mutex
	submitRTT []time.Duration
	pollRTT   []time.Duration
	polls     int
	ops       int
	non2xx    int
	pollLag   []time.Duration
	queueWait []time.Duration
	jobRun    []time.Duration
	baseline  []time.Duration
	scenarios []time.Duration
}

// endpoint is a listener's address and the client the bench reaches it
// with.
type endpoint struct {
	base   string
	client *http.Client
}

// roundTrip sends one request and returns the status and body.
func (d endpoint) roundTrip(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// simulateOp is one "POST /v1/simulate, poll to terminal" op.
type simulateOp struct {
	result server.SimulateResult
	took   time.Duration
}

// runSimulate submits body and polls the job every pollEvery until it
// is terminal: the closed-loop client every service workload uses.
func (d *daemon) runSimulate(ctx context.Context, tr *tracer, hs *httpStats, op, lane int, body []byte) (*simulateOp, error) {
	start := time.Now()
	root := tr.begin("op", op, lane, -1)
	defer tr.end(root)

	s := tr.begin("http.submit", op, lane, root)
	t0 := time.Now()
	code, b, err := d.roundTrip(ctx, http.MethodPost, "/v1/simulate", body)
	submitRTT := time.Since(t0)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if code != http.StatusAccepted {
		hs.count(func() { hs.non2xx++ })
		return nil, fmt.Errorf("submit: status %d: %s", code, bytes.TrimSpace(b))
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}

	out := &simulateOp{}
	var view jobView
	var pollRTT time.Duration
	polls := 0
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		s := tr.begin("http.poll", op, lane, root)
		t0 := time.Now()
		code, b, err := d.roundTrip(ctx, http.MethodGet, "/v1/jobs/"+sub.ID, nil)
		pollRTT += time.Since(t0)
		tr.end(s)
		polls++
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			hs.count(func() { hs.non2xx++ })
			return nil, fmt.Errorf("poll: status %d: %s", code, bytes.TrimSpace(b))
		}
		view = jobView{}
		if err := json.Unmarshal(b, &view); err != nil {
			return nil, fmt.Errorf("poll: %w", err)
		}
		if view.State.Terminal() {
			break
		}
		timer.Reset(pollEvery)
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("job %s still %s: %w", sub.ID, view.State, ctx.Err())
		case <-timer.C:
		}
	}
	end := time.Now()
	out.took = end.Sub(start)
	if view.State != jobs.Succeeded {
		return nil, fmt.Errorf("job %s %s: %s", sub.ID, view.State, view.Error)
	}
	if err := json.Unmarshal(view.Result, &out.result); err != nil {
		return nil, fmt.Errorf("job %s result: %w", sub.ID, err)
	}
	if tr != nil {
		v, r := view, out.result
		hs.count(func() {
			hs.ops++
			hs.polls += polls
			hs.submitRTT = append(hs.submitRTT, submitRTT)
			hs.pollRTT = append(hs.pollRTT, pollRTT/time.Duration(polls))
			if v.Started != nil && v.Finished != nil {
				hs.queueWait = append(hs.queueWait, v.Started.Sub(v.Created))
				hs.jobRun = append(hs.jobRun, v.Finished.Sub(*v.Started))
				hs.pollLag = append(hs.pollLag, end.Sub(*v.Finished))
			}
			hs.baseline = append(hs.baseline, time.Duration(r.BaselineNanos))
			hs.scenarios = append(hs.scenarios, time.Duration(r.ScenariosNanos))
		})
	}
	return out, nil
}

func (h *httpStats) count(fn func()) {
	h.mu.Lock()
	fn()
	h.mu.Unlock()
}

// fill writes the server.* and jobs.* rows the clients observed.
func (h *httpStats) fill(m metrics) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m["server.submit_rtt_us"] = us(median(h.submitRTT))
	m["server.poll_rtt_us"] = us(median(h.pollRTT))
	if h.ops > 0 {
		m["server.polls_per_op"] = float64(h.polls) / float64(h.ops)
	}
	m["server.poll_lag_ms"] = ms(median(h.pollLag))
	m["server.baseline_wall_ms"] = ms(median(h.baseline))
	m["server.scenarios_wall_ms"] = ms(median(h.scenarios))
	m["server.non2xx"] = float64(h.non2xx)
	m["jobs.queue_wait_ms"] = ms(median(h.queueWait))
	m["jobs.run_ms"] = ms(median(h.jobRun))
}

// statsBase snapshots the daemon's counters so a pass reports deltas.
type statsBase struct {
	cache   simcache.Stats
	journal journal.Stats
	jobs    jobs.Stats
}

func (d *daemon) snapshot() statsBase {
	return statsBase{cache: d.cache.Stats(), journal: d.wal.Stats(), jobs: d.queue.Stats()}
}

// hitRatio is the baseline cache's hit ratio since base.
func (d *daemon) hitRatio(base statsBase) float64 {
	now := d.cache.Stats()
	hits := float64(now.Hits + now.Coalesced - base.cache.Hits - base.cache.Coalesced)
	misses := float64(now.Misses - base.cache.Misses)
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// fillDeltas writes the counter-derived rows for the pass since base.
func (d *daemon) fillDeltas(m metrics, base statsBase) {
	cs, js, qs := d.cache.Stats(), d.wal.Stats(), d.queue.Stats()
	m["simcache.hit_ratio"] = d.hitRatio(base)
	m["simcache.evictions"] = float64(cs.Evictions - base.cache.Evictions)
	m["simcache.bytes_resident"] = float64(cs.SizeBytes) / (1 << 20)
	m["journal.appends"] = float64(js.Appends - base.journal.Appends)
	m["journal.syncs"] = float64(js.Syncs - base.journal.Syncs)
	m["jobs.retries"] = float64(qs.Retries - base.jobs.Retries)
	m["jobs.wal_errors"] = float64(qs.WALErrors - base.jobs.WALErrors)
}

// loadgenShare estimates the share of the pass's CPU the bench's own
// clients used: the CPU of the same number of round trips against a
// handler that does nothing, over the pass's CPU. Both ends of net/http
// are in it, so it is an upper bound on the load generator alone.
func loadgenShare(ctx context.Context, requests int, passCPU time.Duration) float64 {
	if requests == 0 || passCPU <= 0 {
		return 0
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // the reply below is the point
		w.WriteHeader(http.StatusOK)
	})}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	d := endpoint{base: "http://" + ln.Addr().String(), client: &http.Client{Transport: &http.Transport{}}}
	const sample = 2000
	cpu0 := cpuTime()
	for i := 0; i < sample && ctx.Err() == nil; i++ {
		if _, _, err := d.roundTrip(ctx, http.MethodPost, "/", []byte(`{"workload":"minife"}`)); err != nil {
			break
		}
	}
	per := (cpuTime() - cpu0) / sample
	_ = hs.Close() // the stub has no state to flush
	<-served
	d.client.CloseIdleConnections()
	share := float64(per) * float64(requests) / float64(passCPU)
	if share > 1 {
		share = 1
	}
	return share
}

// sample picks about share of [0,n) with the seed, at least one index,
// sorted: the ops a check or staged replay covers.
func sampleOps(seed uint64, n int, share float64) []int {
	k := int(float64(n)*share + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	idx := permute(seed^0x5a17, n)[:k]
	sort.Ints(idx)
	return idx
}

var errMismatch = errors.New("output mismatch")
