package main

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/advise"
	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/simcache"
)

// crashImage journals 64 queued + 3 running simulate jobs — what a
// default-capacity daemon with three workers can hold — and "crashes":
// the WAL is closed with no job finished. It returns the ids in
// acceptance order.
func crashImage(t *testing.T, walDir string) []string {
	t.Helper()
	w, err := journal.Open(walDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := jobs.New(jobs.Config{Workers: 3, Capacity: 64, Journal: w})
	block := make(chan struct{})
	held := func(ctx context.Context) (any, error) { <-block; return nil, nil }
	payload := json.RawMessage(`{"workload":"lulesh","nodes":64,"iters":8,"mtbce_ns":500000000,"mode":"firmware-emca","seed":1,"reps":1}`)
	var ids []string
	submit := func(n int) {
		for i := 0; i < n; i++ {
			id, err := q.SubmitSpec(jobs.Spec{Kind: "simulate", Payload: payload}, held)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	submit(3)
	for deadline := time.Now().Add(10 * time.Second); q.Stats().Running < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("workers never picked up the held jobs")
		}
	}
	submit(64)
	if err := w.Close(); err != nil { // later appends fail: nothing after the crash reaches the log
		t.Fatal(err)
	}
	close(block)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	return ids
}

// boot is main's recovery sequence, restartJobs, over walDir with a
// queue of the given capacity.
func boot(t *testing.T, walDir string, capacity int, logs *bytes.Buffer) (q *jobs.Queue, w *journal.Writer, pending []jobs.PendingJob, resubmitted int) {
	t.Helper()
	logger := log.New(logs, "", 0)
	w, pending, resubmitted = restartJobs(context.Background(), logger, walDir, func(w *journal.Writer) *server.Server {
		q = jobs.New(jobs.Config{Workers: 3, Capacity: capacity, Journal: w, Log: logger})
		srv, err := server.New(server.Config{Queue: q, Cache: simcache.New(0), Advisor: advise.NewService(advise.Config{}), Journal: w, Log: logger})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	})
	return q, w, pending, resubmitted
}

// segmentFiles lists the live segments of walDir.
func segmentFiles(t *testing.T, walDir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestPartialResubmitKeepsPreRestartSegments: a restart that could not
// re-enqueue every recovered job — Queue.submit never blocks, so 64 + 3
// jobs need not fit a 64-slot queue, and a smaller -queue cannot hold
// them — must not compact away the only record of the jobs it skipped:
// either all are re-enqueued and the old segments go, or the old
// segments survive and the next Recover returns the stragglers.
func TestPartialResubmitKeepsPreRestartSegments(t *testing.T) {
	for _, tc := range []struct {
		name      string
		capacity  int
		shortfall bool // the queue cannot hold the image whatever the workers do
	}{
		{"same capacity", 64, false},
		{"smaller queue", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			walDir := filepath.Join(t.TempDir(), "jobs-wal")
			ids := crashImage(t, walDir)
			before := segmentFiles(t, walDir)

			var logs bytes.Buffer
			q, w, pending, n := boot(t, walDir, tc.capacity, &logs)
			if len(pending) != len(ids) {
				t.Fatalf("recovered %d jobs, want %d", len(pending), len(ids))
			}
			if tc.shortfall && n == len(ids) {
				t.Fatalf("all %d jobs fit a %d-slot queue", n, tc.capacity)
			}
			// Let every re-enqueued job finish, then "crash" again.
			var stragglers []string
			for _, id := range ids {
				if _, ok := q.Get(id); !ok {
					stragglers = append(stragglers, id)
					continue
				}
				if snap, _, err := q.Wait(context.Background(), id); err != nil || snap.State != jobs.Succeeded {
					t.Fatalf("re-enqueued job %s: %+v, %v", id, snap, err)
				}
			}
			if err := q.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if len(stragglers) != len(ids)-n {
				t.Fatalf("%d jobs unknown to the queue, Resubmit reported %d of %d", len(stragglers), n, len(ids))
			}

			after := segmentFiles(t, walDir)
			again, _, err := jobs.Recover(context.Background(), walDir)
			if err != nil {
				t.Fatal(err)
			}
			if n == len(ids) {
				if len(after) != 1 || len(again) != 0 {
					t.Fatalf("full resubmit: %d segments and %d pending jobs left, want 1 and 0\n%s", len(after), len(again), logs.String())
				}
				return
			}
			if len(after) != len(before)+1 {
				t.Fatalf("partial resubmit (%d of %d): %d segments, want the %d pre-restart ones and the new one\n%s",
					n, len(ids), len(after), len(before), logs.String())
			}
			if !bytes.Contains(logs.Bytes(), []byte("keeping pre-restart segments")) || !bytes.Contains(logs.Bytes(), []byte(stragglers[0])) {
				t.Fatalf("shortfall not logged with its ids:\n%s", logs.String())
			}
			if len(again) != len(stragglers) {
				t.Fatalf("second Recover returned %d jobs, want the %d stragglers", len(again), len(stragglers))
			}
			for i, p := range again {
				if p.ID != stragglers[i] || p.Spec.Kind != "simulate" {
					t.Fatalf("straggler %d: got %s (%s), want %s", i, p.ID, p.Spec.Kind, stragglers[i])
				}
			}

			// A restart with room for them recovers the stragglers, and only
			// then does the log shrink to the new generation.
			q3, w3, _, n3 := boot(t, walDir, 64, &logs)
			if n3 != len(stragglers) {
				t.Fatalf("third boot re-enqueued %d, want %d", n3, len(stragglers))
			}
			if err := q3.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := w3.Close(); err != nil {
				t.Fatal(err)
			}
			if segs := segmentFiles(t, walDir); len(segs) != 1 {
				t.Fatalf("%d segments after a full resubmit, want 1", len(segs))
			}
		})
	}
}

// TestWorkerCrashMidShardRestartsCompact: a cluster worker SIGKILLed
// while a leased shard runs in its job queue must not leave the job WAL
// holding a job no restart can rebuild (the shard is the coordinator's
// to re-offer). Every restart after the crash compacts the pre-restart
// segments.
func TestWorkerCrashMidShardRestartsCompact(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	// The shard job stalls at its fault site until the crash cancels it.
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteClusterShard: {Kind: faultinject.KindDelay, Probability: 1, DelayNanos: int64(time.Minute)},
	}); err != nil {
		t.Fatal(err)
	}
	coord := cluster.NewCoordinator()
	cq := jobs.New(jobs.Config{Workers: 1})
	cs, err := server.New(server.Config{Queue: cq, Cache: simcache.New(0), Advisor: advise.NewService(advise.Config{}), Routes: coord.Routes()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(cs)
	defer ts.Close()
	defer cq.Drain(context.Background())
	if _, _, err := coord.CreateSweep(cluster.Spec{Figures: []string{"4"}, Workloads: []string{"minife"}, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	walDir := filepath.Join(t.TempDir(), "jobs-wal")
	w, err := journal.Open(walDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := jobs.New(jobs.Config{Workers: 1, Journal: w})
	cw, err := cluster.NewWorker(cluster.WorkerConfig{Coordinator: ts.URL, Addr: "worker-1", Queue: q, Cache: simcache.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cw.Run(ctx) }()
	for deadline := time.Now().Add(10 * time.Second); q.Stats().Running == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker never started a shard job")
		}
	}
	if err := w.Close(); err != nil { // the crash: nothing after it reaches the log
		t.Fatal(err)
	}
	cancel()
	<-done
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	for i := 1; i <= 3; i++ {
		var logs bytes.Buffer
		q, w, pending, _ := boot(t, walDir, 64, &logs)
		if err := q.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if len(pending) != 0 || bytes.Contains(logs.Bytes(), []byte("keeping pre-restart segments")) {
			t.Fatalf("restart %d recovered %d jobs and kept its segments:\n%s", i, len(pending), logs.String())
		}
		if segs := segmentFiles(t, walDir); len(segs) != 1 {
			t.Fatalf("restart %d left %d segments, want 1\n%s", i, len(segs), logs.String())
		}
	}
}

// TestUnrebuildableJobFailsAndRestartCompacts: a recovered job whose
// payload no longer validates must not keep the pre-restart segments
// for good. The restart re-enqueues it as a job that fails with the
// reason and journals the failure, so it compacts; the next restart
// recovers nothing, and a client polling the id reads why it failed.
func TestUnrebuildableJobFailsAndRestartCompacts(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "jobs-wal")
	w, err := journal.Open(walDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := jobs.New(jobs.Config{Workers: 1, Journal: w})
	block := make(chan struct{})
	id, err := q.SubmitSpec(jobs.Spec{Kind: "simulate", Payload: json.RawMessage(`{"workload":"bogus","nodes":16}`)},
		func(ctx context.Context) (any, error) { <-block; return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // the crash: the job never finishes in the log
		t.Fatal(err)
	}
	close(block)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	q, w, pending, n := boot(t, walDir, 64, &logs)
	if len(pending) != 1 || n != 1 {
		t.Fatalf("first restart recovered %d jobs and re-enqueued %d, want 1 and 1\n%s", len(pending), n, logs.String())
	}
	if _, _, err := q.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Queue: q, Cache: simcache.New(0), Advisor: advise.NewService(advise.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
	var snap jobs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: %d %s", id, rec.Code, rec.Body.String())
	}
	if snap.State != jobs.Failed || !strings.Contains(snap.Error, "unknown workload") {
		t.Fatalf("GET /v1/jobs/%s: %s (%s), want failed with the reason", id, snap.State, snap.Error)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := segmentFiles(t, walDir); len(segs) != 1 || bytes.Contains(logs.Bytes(), []byte("keeping pre-restart segments")) {
		t.Fatalf("first restart left %d segments, want 1 and compacted\n%s", len(segs), logs.String())
	}

	q, w, pending, _ = boot(t, walDir, 64, &logs)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("second restart recovered %d jobs, want none\n%s", len(pending), logs.String())
	}
}
