package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/simcache"
)

// computeFragment runs a granted cell exactly as a worker's shard job
// does, returning the figure restricted to the cell's workload.
func computeFragment(t *testing.T, g *Grant) *core.Figure {
	t.Helper()
	opts := g.Spec.Options()
	opts.Workloads = []string{g.Cell.Workload}
	fig, err := core.RunFigure(context.Background(), g.Cell.Figure, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fig
}

// figureBytes canonicalizes a figure to its WriteJSON bytes.
func figureBytes(t *testing.T, f *core.Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCoordinatorRecoverResumesSweep is the coordinator half of the
// kill-and-restart acceptance: a sweep interrupted mid-flight (one cell
// done, one leased) is recovered from the journal by a fresh
// coordinator that re-offers ONLY the unfinished cell, and the merged
// figure is byte-identical to the sequential driver.
func TestCoordinatorRecoverResumesSweep(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	ctx := context.Background()

	c1, st, err := OpenCoordinator(ctx, testConfig(clock), dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || c1.Epoch() != 1 {
		t.Fatalf("fresh open: %d records, epoch %d", st.Records, c1.Epoch())
	}
	w1, _ := c1.Register("", "")
	spec := fig4Spec(tinyOpts())
	id, shards, err := c1.CreateSweep(spec)
	if err != nil || shards != 2 {
		t.Fatalf("create: %v (%d shards)", err, shards)
	}
	clock.Advance(time.Second) // past StealAfter
	g1, err := c1.Lease(w1)
	if err != nil || g1 == nil {
		t.Fatalf("lease 1: %v %+v", err, g1)
	}
	if err := c1.Report(w1, id, g1.Key, computeFragment(t, g1), ""); err != nil {
		t.Fatal(err)
	}
	// The second cell is leased but never reported: the crash window.
	g2, err := c1.Lease(w1)
	if err != nil || g2 == nil {
		t.Fatalf("lease 2: %v %+v", err, g2)
	}
	// SIGKILL: the coordinator is dropped without Close. The journal's
	// write(2) calls completed, so the page cache has every record.

	c2, st2, err := OpenCoordinator(ctx, testConfig(clock), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// epoch(1) + sweep_created + lease g1 + shard_done + lease g2.
	if st2.Records != 5 || st2.Quarantined != 0 {
		t.Fatalf("replay stats: %+v", st2)
	}
	if c2.Epoch() != 2 {
		t.Fatalf("epoch after restart = %d, want 2", c2.Epoch())
	}
	res, err := c2.Sweep(id)
	if err != nil || res.State != "running" || res.Done != 1 || res.Total != 2 {
		t.Fatalf("recovered sweep: %+v, %v", res, err)
	}

	// Only the unfinished cell is re-offered — and with its pre-crash
	// attempt count intact (the grant record's job).
	w2, _ := c2.Register("", "")
	clock.Advance(time.Second)
	rg, err := c2.Lease(w2)
	if err != nil || rg == nil || rg.Key != g2.Key {
		t.Fatalf("recovered lease: %v %+v (want key %s)", err, rg, g2.Key)
	}
	if extra, err := c2.Lease(w2); err != nil || extra != nil {
		t.Fatalf("done cell re-offered after recovery: %v %+v", err, extra)
	}
	if st := c2.StatusSnapshot(); len(st.Leases) != 1 || st.Leases[0].Attempts != 2 {
		t.Fatalf("recovered lease attempts: %+v", st.Leases)
	}
	if err := c2.Report(w2, id, rg.Key, computeFragment(t, rg), ""); err != nil {
		t.Fatal(err)
	}

	res, err = c2.Sweep(id)
	if err != nil || res.State != "done" {
		t.Fatalf("sweep after recovery: %+v, %v", res, err)
	}
	want, err := core.Figure4(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(figureBytes(t, res.Figures["4"]), figureBytes(t, want)) {
		t.Fatal("recovered merge differs from the sequential driver")
	}
}

// TestCoordinatorSurvivesTornTailDoubleRestart is the regression for
// the torn-tail quarantine bug: a crash mid-append leaves a partial
// record at the WAL's tail, and the sweep must survive not just the
// first restart (where the torn segment is still the log's last) but a
// SECOND one, after recovery has stacked new segments above it. Before
// the fix, the second replay saw the torn segment as non-final,
// quarantined it whole, and silently dropped the sweep.
func TestCoordinatorSurvivesTornTailDoubleRestart(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	ctx := context.Background()

	c1, _, err := OpenCoordinator(ctx, testConfig(clock), dir)
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := c1.Register("", "")
	spec := fig4Spec(tinyOpts())
	id, shards, err := c1.CreateSweep(spec)
	if err != nil || shards != 2 {
		t.Fatalf("create: %v (%d shards)", err, shards)
	}
	clock.Advance(time.Second)
	g1, err := c1.Lease(w1)
	if err != nil || g1 == nil {
		t.Fatalf("lease: %v %+v", err, g1)
	}
	if err := c1.Report(w1, id, g1.Key, computeFragment(t, g1), ""); err != nil {
		t.Fatal(err)
	}
	// SIGKILL mid-append: a partial record header lands at the tail of
	// the last segment.
	segs, err := os.ReadDir(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("journal dir: %v (%d entries)", err, len(segs))
	}
	last := filepath.Join(dir, segs[len(segs)-1].Name())
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// First restart: the torn segment is still the final one.
	c2, st2, err := OpenCoordinator(ctx, testConfig(clock), dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Quarantined != 0 || !st2.TornTail {
		t.Fatalf("first restart stats: %+v", st2)
	}
	if res, err := c2.Sweep(id); err != nil || res.Done != 1 || res.Total != 2 {
		t.Fatalf("sweep after first restart: %+v, %v", res, err)
	}
	// Second SIGKILL (no Close), second restart: recovery appended new
	// segments above the previously-torn one.
	c3, st3, err := OpenCoordinator(ctx, testConfig(clock), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if st3.Quarantined != 0 {
		t.Fatalf("second restart quarantined valid history: %+v", st3)
	}
	res, err := c3.Sweep(id)
	if err != nil || res.Done != 1 || res.Total != 2 {
		t.Fatalf("sweep lost across second restart: %+v, %v", res, err)
	}
	if c3.Epoch() != 3 {
		t.Fatalf("epoch after two restarts = %d, want 3", c3.Epoch())
	}

	// Finish on the third generation; the merge must still match the
	// sequential driver bit-for-bit.
	w3, _ := c3.Register("", "")
	clock.Advance(time.Second)
	g3, err := c3.Lease(w3)
	if err != nil || g3 == nil {
		t.Fatalf("lease on third generation: %v %+v", err, g3)
	}
	if err := c3.Report(w3, id, g3.Key, computeFragment(t, g3), ""); err != nil {
		t.Fatal(err)
	}
	res, err = c3.Sweep(id)
	if err != nil || res.State != "done" {
		t.Fatalf("finish: %+v, %v", res, err)
	}
	want, err := core.Figure4(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(figureBytes(t, res.Figures["4"]), figureBytes(t, want)) {
		t.Fatal("merge after two restarts differs from the sequential driver")
	}

	// Each recovery re-journals a snapshot and compacts its
	// predecessors: the WAL is bounded by live state, not restart count.
	var live int
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("%d live segments after two recoveries, want 1 (compaction)", live)
	}
}

// copyDir clones a journal directory so two replays can fold the same
// WAL independently.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverSameWALSameState replays one WAL into two coordinators
// and drives both to completion identically: same sweep state, same
// pending cell, same epoch, byte-identical final merge.
func TestRecoverSameWALSameState(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	ctx := context.Background()

	c1, _, err := OpenCoordinator(ctx, testConfig(clock), dir)
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := c1.Register("", "")
	spec := fig4Spec(tinyOpts())
	id, _, err := c1.CreateSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	g1, err := c1.Lease(w1)
	if err != nil || g1 == nil {
		t.Fatal("lease 1 refused")
	}
	if err := c1.Report(w1, id, g1.Key, computeFragment(t, g1), ""); err != nil {
		t.Fatal(err)
	}
	// Crash here; clone the WAL before any recovery appends to it.
	dir2 := t.TempDir()
	copyDir(t, dir, dir2)

	finish := func(walDir string) (uint64, []byte) {
		c, _, err := OpenCoordinator(ctx, testConfig(clock), walDir)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res, err := c.Sweep(id)
		if err != nil || res.Done != 1 || res.Total != 2 {
			t.Fatalf("recovered sweep in %s: %+v, %v", walDir, res, err)
		}
		w, _ := c.Register("", "")
		clock.Advance(time.Second)
		g, err := c.Lease(w)
		if err != nil || g == nil {
			t.Fatalf("recovered lease in %s: %v", walDir, err)
		}
		if err := c.Report(w, id, g.Key, computeFragment(t, g), ""); err != nil {
			t.Fatal(err)
		}
		res, err = c.Sweep(id)
		if err != nil || res.State != "done" {
			t.Fatalf("finish in %s: %+v, %v", walDir, res, err)
		}
		return c.Epoch(), figureBytes(t, res.Figures["4"])
	}
	epochA, bytesA := finish(dir)
	epochB, bytesB := finish(dir2)
	if epochA != epochB {
		t.Fatalf("same WAL, different epochs: %d vs %d", epochA, epochB)
	}
	if !bytes.Equal(bytesA, bytesB) {
		t.Fatal("same WAL, different merged bytes")
	}
}

// TestLeaseExpiryHeartbeatRaceDoesNotDoubleLease is the satellite race
// test: a heartbeat that lands on the exact tick the lease TTL expires
// must NOT revive the lease. Expiry is processed first, the heartbeat
// is answered with a drop, and the replacement worker becomes the sole
// holder — never two live leases for one shard.
func TestLeaseExpiryHeartbeatRaceDoesNotDoubleLease(t *testing.T) {
	clock := newFakeClock()
	cfg := testConfig(clock)
	cfg.Retry.Retries = 5 // keep the budget out of the way
	c := NewCoordinator(cfg)
	w1, w2 := registerHolderAndHeir(c)
	ttl := cfg.LeaseTTL
	id, _, err := c.CreateSweep(oneCellSpec())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second) // past StealAfter
	g, err := c.Lease(w1)
	if err != nil || g == nil {
		t.Fatalf("lease: %v %+v", err, g)
	}

	// Advance to exactly the expiry tick: now == leaseExpiry, and a
	// lease is live only while now < leaseExpiry.
	clock.Advance(ttl)
	drop, err := c.Heartbeat(w1, []ShardRef{{SweepID: id, Key: g.Key}})
	if err != nil {
		t.Fatal(err)
	}
	if len(drop) != 1 {
		t.Fatalf("same-tick heartbeat revived the expired lease (drop=%v)", drop)
	}

	// The replacement takes the shard in the same tick...
	g2, err := c.Lease(w2)
	if err != nil || g2 == nil || g2.Key != g.Key {
		t.Fatalf("replacement lease: %v %+v", err, g2)
	}
	// ...and a straggler heartbeat from the old holder cannot extend or
	// steal it back.
	drop, err = c.Heartbeat(w1, []ShardRef{{SweepID: id, Key: g.Key}})
	if err != nil || len(drop) != 1 {
		t.Fatalf("straggler heartbeat: %v drop=%v", err, drop)
	}
	st := c.StatusSnapshot()
	if len(st.Leases) != 1 || st.Leases[0].Worker != w2 {
		t.Fatalf("double lease: %+v", st.Leases)
	}
	if st.Reassignments != 1 {
		t.Fatalf("reassignments = %d, want 1", st.Reassignments)
	}
	// w1's heartbeats must not have extended w2's clock either: w2's
	// lease still expires on its own schedule.
	clock.Advance(ttl)
	c.StatusSnapshot() // processes the expiry (pendingSince resets here)
	clock.Advance(cfg.StealAfter + time.Millisecond)
	g3, err := c.Lease(w1)
	if err != nil || g3 == nil {
		t.Fatalf("lease after w2 expiry: %v %+v", err, g3)
	}
	if st := c.StatusSnapshot(); len(st.Leases) != 1 || st.Leases[0].Worker != w1 {
		t.Fatalf("post-expiry leases: %+v", st.Leases)
	}
}

// TestEpochMismatchOverWire drives the handshake at the protocol
// level: stale epochs are refused with the epoch_mismatch code (mapped
// back to ErrEpochMismatch client-side), epoch 0 stays accepted for
// pre-handshake clients.
func TestEpochMismatchOverWire(t *testing.T) {
	c := NewCoordinator(testConfig(newFakeClock()))
	mux := http.NewServeMux()
	for pattern, h := range c.Routes() {
		mux.HandleFunc(pattern, h)
	}
	ts := httptest.NewServer(mux)
	defer ts.Close()
	ctx := context.Background()

	var reg registerResponse
	if err := postJSON(ctx, ts.Client(), ts.URL+"/cluster/register", registerRequest{}, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Epoch != 1 {
		t.Fatalf("register epoch = %d, want 1", reg.Epoch)
	}
	var lr leaseResponse
	err := postJSON(ctx, ts.Client(), ts.URL+"/cluster/lease",
		leaseRequest{WorkerID: reg.WorkerID, Epoch: 7}, &lr)
	if !errors.Is(err, ErrEpochMismatch) {
		t.Fatalf("stale lease: %v, want ErrEpochMismatch", err)
	}
	err = postJSON(ctx, ts.Client(), ts.URL+"/cluster/heartbeat",
		heartbeatRequest{WorkerID: reg.WorkerID, Epoch: 7}, &heartbeatResponse{})
	if !errors.Is(err, ErrEpochMismatch) {
		t.Fatalf("stale heartbeat: %v, want ErrEpochMismatch", err)
	}
	err = postJSON(ctx, ts.Client(), ts.URL+"/cluster/report",
		reportRequest{WorkerID: reg.WorkerID, Epoch: 7, SweepID: "s1", Key: "k", Error: "x"}, &struct{}{})
	if !errors.Is(err, ErrEpochMismatch) {
		t.Fatalf("stale report: %v, want ErrEpochMismatch", err)
	}
	// Epoch 0 = legacy client: accepted.
	if err := postJSON(ctx, ts.Client(), ts.URL+"/cluster/lease",
		leaseRequest{WorkerID: reg.WorkerID}, &lr); err != nil || !lr.None {
		t.Fatalf("legacy lease: %v %+v", err, lr)
	}
}

// TestWorkerRejoinsAfterCoordinatorRestart is the end-to-end epoch
// drill: a live worker is mid-sweep when the coordinator is killed and
// a recovered one (same journal, next epoch) appears at the same URL.
// The worker must detect the new epoch, re-register, hand over its
// fragment, and the sweep must finish byte-identical to the sequential
// driver.
func TestWorkerRejoinsAfterCoordinatorRestart(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	dir := t.TempDir()
	ctx := context.Background()

	newStack := func() (*Coordinator, http.Handler) {
		coord, _, err := OpenCoordinator(ctx, Config{StealAfter: 50 * time.Millisecond}, dir)
		if err != nil {
			t.Fatal(err)
		}
		q := jobs.New(jobs.Config{Workers: 1})
		s, err := server.New(server.Config{Queue: q, Cache: simcache.New(0), Routes: coord.Routes()})
		if err != nil {
			t.Fatal(err)
		}
		return coord, s
	}

	// The coordinator lives behind a swappable handler so "restart"
	// keeps the URL stable, as a respawned cesimd would.
	var handler atomic.Value
	coordA, stackA := newStack()
	handler.Store(stackA)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer ts.Close()
	wk := startWorker(t, ts.URL)
	defer wk.stop()

	// Each shard attempt stalls 150ms so the restart lands mid-sweep.
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteClusterShard: {Kind: faultinject.KindDelay, Probability: 1,
			DelayNanos: int64(150 * time.Millisecond), Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}

	spec := fig4Spec(tinyOpts())
	sweepID, shards, err := coordA.CreateSweep(spec)
	if err != nil || shards != 2 {
		t.Fatalf("create sweep: %v (%d shards)", err, shards)
	}

	// Wait for the first cell to complete, then "kill" coordinator A
	// and bring up B from the same journal.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if res, err := coordA.Sweep(sweepID); err == nil && res.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first shard never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	coordB, stackB := newStack()
	defer coordB.Close()
	handler.Store(stackB)
	if coordB.Epoch() != 2 {
		t.Fatalf("recovered epoch = %d, want 2", coordB.Epoch())
	}

	// The worker re-registers into epoch 2 on its own and finishes the
	// remaining cell against coordinator B.
	figures, err := (&Client{Base: ts.URL, Poll: 10 * time.Millisecond}).Wait(ctx, sweepID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Figure4(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(figureBytes(t, figures["4"]), figureBytes(t, want)) {
		t.Fatal("merge after coordinator restart diverged from sequential run")
	}
	if st := coordB.StatusSnapshot(); st.Epoch != 2 {
		t.Fatalf("status epoch: %+v", st.Epoch)
	}
}

// TestCoordinatorJournalFaultDegrades arms the journal.append site
// under a live sweep: every durable record fails, the failure is
// counted, and the sweep still completes — durability degrades, the
// cluster does not.
func TestCoordinatorJournalFaultDegrades(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	clock := newFakeClock()
	ctx := context.Background()
	c, _, err := OpenCoordinator(ctx, testConfig(clock), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteJournalAppend: {Kind: faultinject.KindError, Probability: 1, Seed: 1},
	}); err != nil {
		t.Fatal(err)
	}
	w1, _ := c.Register("", "")
	id, _, err := c.CreateSweep(oneCellSpec())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	g, err := c.Lease(w1)
	if err != nil || g == nil {
		t.Fatalf("lease under journal faults: %v %+v", err, g)
	}
	if err := c.Report(w1, id, g.Key, fragment(g.Cell), ""); err != nil {
		t.Fatal(err)
	}
	res, err := c.Sweep(id)
	if err != nil || res.State != "done" {
		t.Fatalf("sweep under journal faults: %+v, %v", res, err)
	}
	st := c.StatusSnapshot()
	if st.JournalErrors < 3 { // created + lease + shard_done at minimum
		t.Fatalf("journal errors = %d, want >= 3", st.JournalErrors)
	}
}
