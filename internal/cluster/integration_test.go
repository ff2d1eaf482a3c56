package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/simcache"
)

// These tests run coordinator and workers in one process, so none of
// them may use t.Parallel: faultinject plans are global, and goroutine
// accounting needs a quiet process.

// tinyOpts mirrors the campaign package's test options, with a second
// workload so sharding and merge order are actually exercised.
func tinyOpts() core.Options {
	return core.Options{Nodes: 16, Iterations: 2, Reps: 1, Seed: 1,
		Workloads: []string{"minife", "hpcg"}}
}

// fig4Spec is the sweep Client.Figure("4", opts) submits.
func fig4Spec(opts core.Options) Spec {
	opts.Figures = []string{"4"}
	return Spec(opts)
}

// startCoordinator serves a coordinator through the full server stack
// (middleware, metrics, request ids), as cesimd -role coordinator does.
func startCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	coord := NewCoordinator(cfg)
	q := jobs.New(jobs.Config{Workers: 1})
	s, err := server.New(server.Config{Queue: q, Cache: simcache.New(0), Routes: coord.Routes()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = q.Drain(ctx)
	})
	return coord, ts
}

// workerHandle is one in-process worker and its teardown.
type workerHandle struct {
	worker *Worker
	queue  *jobs.Queue
	cancel context.CancelFunc
	done   chan struct{}
}

// startWorker launches one worker against the coordinator URL and
// registers cleanup that stops it and drains its queue.
func startWorker(t *testing.T, url string) *workerHandle {
	t.Helper()
	q := jobs.New(jobs.Config{Workers: 2})
	w, err := NewWorker(WorkerConfig{
		Coordinator:  url,
		Queue:        q,
		Cache:        simcache.New(0),
		PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &workerHandle{worker: w, queue: q, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		_ = w.Run(ctx)
	}()
	t.Cleanup(h.stop)
	return h
}

// stop kills the worker and drains its local queue; idempotent.
func (h *workerHandle) stop() {
	h.cancel()
	<-h.done
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = h.queue.Drain(ctx)
}

// compareDirs asserts two campaign output directories are byte-equal,
// except MANIFEST.txt whose wall times legitimately differ.
func compareDirs(t *testing.T, wantDir, gotDir string) {
	t.Helper()
	read := func(dir string) map[string][]byte {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, e := range entries {
			if e.Name() == "MANIFEST.txt" {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		return files
	}
	want, got := read(wantDir), read(gotDir)
	if len(want) != len(got) {
		t.Fatalf("file sets differ: sequential %d files, distributed %d", len(want), len(got))
	}
	for name, wdata := range want {
		gdata, ok := got[name]
		if !ok {
			t.Fatalf("distributed run missing %s", name)
		}
		if !bytes.Equal(wdata, gdata) {
			t.Errorf("%s differs between sequential and distributed runs", name)
		}
	}
}

// TestDistributedCampaignBitIdentical is the tentpole's acceptance
// test: a campaign swept across two in-process workers must produce an
// output directory byte-identical to the sequential run — merged rows,
// CSV, aligned text, JSON, everything but manifest wall times.
func TestDistributedCampaignBitIdentical(t *testing.T) {
	only := []string{"3", "4"} // fig3: per-index seed derivation; fig4: multi-system rows
	seqDir := t.TempDir()
	if _, err := campaign.Run(campaign.Config{OutDir: seqDir, Options: tinyOpts(), Only: only}); err != nil {
		t.Fatal(err)
	}

	coord, ts := startCoordinator(t, Config{StealAfter: 100 * time.Millisecond})
	startWorker(t, ts.URL)
	startWorker(t, ts.URL)

	distDir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	_, err := campaign.RunContext(ctx, campaign.Config{
		OutDir: distDir, Options: tinyOpts(), Only: only,
		Runner: &Client{Base: ts.URL, Poll: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	compareDirs(t, seqDir, distDir)

	// Both sweeps (one per figure) ran to completion: 2 cells each.
	st := coord.StatusSnapshot()
	if st.CompletedShards != 4 || st.SweepsDone != 2 {
		t.Fatalf("status: %d shards, %d sweeps done, want 4 and 2", st.CompletedShards, st.SweepsDone)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("workers registered: %d, want 2", len(st.Workers))
	}
}

// TestDistributedFaultMixBitIdentical extends the bit-identity
// acceptance to the fault-mix figures: fig8 rebuilds a faultmodel
// mixture process per row and fig9 recomputes its storm-derived
// per-event costs inside every cell, so a distributed run only matches
// the sequential one if both are pure functions of (options, seed).
func TestDistributedFaultMixBitIdentical(t *testing.T) {
	only := []string{"8", "9"}
	seqDir := t.TempDir()
	if _, err := campaign.Run(campaign.Config{OutDir: seqDir, Options: tinyOpts(), Only: only}); err != nil {
		t.Fatal(err)
	}

	_, ts := startCoordinator(t, Config{StealAfter: 100 * time.Millisecond})
	startWorker(t, ts.URL)
	startWorker(t, ts.URL)

	distDir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	_, err := campaign.RunContext(ctx, campaign.Config{
		OutDir: distDir, Options: tinyOpts(), Only: only,
		Runner: &Client{Base: ts.URL, Poll: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	compareDirs(t, seqDir, distDir)
}

// TestDistributedSweepUnderShardFaults arms the cluster.shard site so
// shard attempts panic inside the worker's jobs queue. Local retries
// (and, when those exhaust, coordinator re-offers) must heal every
// attempt and the merged output must stay bit-identical.
func TestDistributedSweepUnderShardFaults(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	only := []string{"4"}
	seqDir := t.TempDir()
	if _, err := campaign.Run(campaign.Config{OutDir: seqDir, Options: tinyOpts(), Only: only}); err != nil {
		t.Fatal(err)
	}

	_, ts := startCoordinator(t, Config{StealAfter: 50 * time.Millisecond})
	startWorker(t, ts.URL)
	startWorker(t, ts.URL)

	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteClusterShard: {Kind: faultinject.KindPanic, Probability: 0.5, Seed: 7},
	}); err != nil {
		t.Fatal(err)
	}
	distDir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	_, err := campaign.RunContext(ctx, campaign.Config{
		OutDir: distDir, Options: tinyOpts(), Only: only,
		Runner: &Client{Base: ts.URL, Poll: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	compareDirs(t, seqDir, distDir)

	snap := faultinject.Snapshot()
	fired := false
	for _, site := range snap.Sites {
		if site.Site == faultinject.SiteClusterShard && site.Fired > 0 {
			fired = true
		}
	}
	if !fired {
		t.Fatal("cluster.shard site never fired; the drill proved nothing")
	}
}

// TestWorkerKillMidLeaseReassigned kills a worker mid-lease — a
// faultinject delay pins its shard in flight, then its context dies,
// heartbeats stop and the lease lapses — and checks the coordinator
// re-assigns the shard to the surviving worker with the final figure
// still bit-identical to the sequential driver.
func TestWorkerKillMidLeaseReassigned(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	opts := tinyOpts()
	want, err := core.Figure4(opts)
	if err != nil {
		t.Fatal(err)
	}

	coord, ts := startCoordinator(t, Config{
		LeaseTTL:   300 * time.Millisecond,
		StealAfter: 50 * time.Millisecond,
	})

	// The first shard attempt anywhere stalls for 1s — far past the
	// lease TTL once heartbeats stop.
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteClusterShard: {Kind: faultinject.KindDelay, Probability: 1, Count: 1,
			DelayNanos: int64(time.Second), Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}

	victim := startWorker(t, ts.URL)
	sweepID, shards, err := coord.CreateSweep(fig4Spec(opts))
	if err != nil || shards != 2 {
		t.Fatalf("create sweep: %v (%d shards)", err, shards)
	}

	// Wait until the victim holds a lease (its shard is pinned in the
	// injected delay), then kill it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := coord.StatusSnapshot(); len(st.Leases) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never took a lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.stop()

	survivor := startWorker(t, ts.URL)
	defer survivor.stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	figures, err := (&Client{Base: ts.URL, Poll: 10 * time.Millisecond}).Wait(ctx, sweepID)
	if err != nil {
		t.Fatal(err)
	}

	var wantBuf, gotBuf bytes.Buffer
	if err := want.WriteJSON(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if err := figures["4"].WriteJSON(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Fatal("merged figure diverged from sequential run after worker loss")
	}
	if st := coord.StatusSnapshot(); st.Reassignments < 1 {
		t.Fatalf("reassignments = %d, want >= 1 after worker kill", st.Reassignments)
	}
}

// TestWorkerShutdownMidShardStopsTheJob: a worker told to stop while
// its shard is mid-figure — every repetition stalled for a minute —
// cancels the shard job instead of leaving it to run out in the queue,
// so draining the queue afterwards takes a repetition, not a figure.
func TestWorkerShutdownMidShardStopsTheJob(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	coord, ts := startCoordinator(t, Config{})
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteRepetition: {Kind: faultinject.KindDelay, Probability: 1, DelayNanos: int64(time.Minute)},
	}); err != nil {
		t.Fatal(err)
	}
	w := startWorker(t, ts.URL)
	if _, _, err := coord.CreateSweep(fig4Spec(tinyOpts())); err != nil {
		t.Fatal(err)
	}
	for faultinject.Snapshot().Sites[0].Fired == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	w.stop()
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("stopping a worker mid-shard took %s with every repetition stalled for a minute", took)
	}
	if st := w.queue.Stats(); st.Canceled != 1 || st.Succeeded != 0 {
		t.Fatalf("shard job after shutdown: %+v, want it canceled", st)
	}
}

// TestCancelMidDistributedSweep cancels a campaign while its sweep is
// in flight on the cluster: the run must return context.Canceled, the
// unfinished figure must leave no partial artifacts, and stopping the
// fleet must leak no goroutines.
func TestCancelMidDistributedSweep(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	base := runtime.NumGoroutine()

	// Built inline (not via startCoordinator) so the whole fleet can be
	// torn down before the goroutine accounting at the end.
	coordQ := jobs.New(jobs.Config{Workers: 1})
	s, err := server.New(server.Config{Queue: coordQ, Cache: simcache.New(0),
		Routes: NewCoordinator(Config{StealAfter: 50 * time.Millisecond}).Routes()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	w := startWorker(t, ts.URL)

	// Every shard stalls 200ms, giving the cancel a wide mid-sweep
	// window.
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteClusterShard: {Kind: faultinject.KindDelay, Probability: 1,
			DelayNanos: int64(200 * time.Millisecond), Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	_, runErr := campaign.RunContext(ctx, campaign.Config{
		OutDir: dir, Options: tinyOpts(), Only: []string{"4"},
		Runner: &Client{Base: ts.URL, Poll: 10 * time.Millisecond},
	})
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
	// Artifacts finished before the cancel stay; the figure mid-sweep
	// left nothing partial.
	if _, err := os.Stat(filepath.Join(dir, "table2.txt")); err != nil {
		t.Fatalf("pre-cancel artifact missing: %v", err)
	}
	for _, leftover := range []string{"fig4.txt", "fig4.csv", "fig4.json"} {
		if _, err := os.Stat(filepath.Join(dir, leftover)); err == nil {
			t.Fatalf("canceled sweep left partial artifact %s", leftover)
		}
	}

	// Tear the fleet down and verify the goroutine count returns to
	// baseline: nothing in worker, client or coordinator leaked.
	faultinject.Disarm()
	w.stop()
	ts.Close()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer drainCancel()
	_ = coordQ.Drain(drainCtx)
	deadline := time.Now().Add(15 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRequestIDsFlowThroughCluster checks the satellite wiring end to
// end: a request id attached to the client context reaches the
// coordinator's middleware and comes back on protocol responses.
func TestRequestIDsFlowThroughCluster(t *testing.T) {
	_, ts := startCoordinator(t, Config{})
	ctx := envelope.WithRequestID(context.Background(), "sweep-rid-9")
	var created sweepCreated
	err := postJSON(ctx, ts.Client(), ts.URL+"/cluster/sweep",
		Spec{Figures: []string{"12"}}, &created)
	if err == nil {
		t.Fatal("invalid sweep accepted")
	}
	// The coordinator rejected it, and the error carries the id the
	// middleware echoed, proving propagation without extra plumbing.
	if !errorContains(err, "sweep-rid-9") {
		t.Fatalf("error lost the request id: %v", err)
	}
}

// TestOversizedReportRefused: a protocol body larger than a WAL record
// could hold is refused at the door with a 4xx that carries the request
// id, and changes nothing — the shard stays leased to its worker, whose
// normal-sized fragment then round-trips and completes the sweep.
func TestOversizedReportRefused(t *testing.T) {
	coord, ts := startCoordinator(t, Config{})
	ctx := envelope.WithRequestID(context.Background(), "big-report-7")
	var reg registerResponse
	if err := postJSON(ctx, ts.Client(), ts.URL+"/cluster/register", registerRequest{Addr: "host1:0"}, &reg); err != nil {
		t.Fatal(err)
	}
	id, _, err := coord.CreateSweep(oneCellSpec())
	if err != nil {
		t.Fatal(err)
	}
	var lease leaseResponse
	if err := postJSON(ctx, ts.Client(), ts.URL+"/cluster/lease", leaseRequest{WorkerID: reg.WorkerID, Epoch: reg.Epoch}, &lease); err != nil || lease.Grant == nil {
		t.Fatalf("lease: %v, %+v", err, lease)
	}
	report := func(frag *core.Figure) error {
		var buf bytes.Buffer
		if err := frag.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return postJSON(ctx, ts.Client(), ts.URL+"/cluster/report", reportRequest{
			WorkerID: reg.WorkerID, Epoch: reg.Epoch, SweepID: id, Key: lease.Grant.Key,
			Figure: buf.Bytes(),
		}, nil)
	}

	big := fragment(lease.Grant.Cell)
	big.Title = strings.Repeat("x", maxBodyBytes)
	err = report(big)
	if !errorContains(err, "http 413") || !errorContains(err, "big-report-7") {
		t.Fatalf("oversized report: %v, want http 413 carrying the request id", err)
	}
	st := coord.StatusSnapshot()
	if len(st.Leases) != 1 || st.Leases[0].Worker != reg.WorkerID || st.Leases[0].Key != lease.Grant.Key {
		t.Fatalf("shard not left leased after the refused report: %+v", st.Leases)
	}

	if err := report(fragment(lease.Grant.Cell)); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Sweep(id)
	if err != nil || res.State != "done" || res.Figures["4"] == nil || res.Figures["4"].Rows[0].MeanPct != 1.5 {
		t.Fatalf("sweep after the normal report: %+v, %v", res, err)
	}
}

func errorContains(err error, sub string) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte(sub))
}

var _ campaign.FigureRunner = (*Client)(nil)
