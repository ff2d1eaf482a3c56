package main

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"path/filepath"
	"testing"
	"time"

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
		srv, err := server.New(server.Config{Queue: q, Cache: simcache.New(0), SimWorkers: 1, Journal: w, Log: logger})
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
