package journal_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/journal"
)

// These tests drive the jobs queue over a real Writer whose fsync is in
// the test's hands (export_test.go): what the background committer is
// for is visible only one layer up, where every Append happens under
// the queue's lock.

const patience = 10 * time.Second

func openWAL(t *testing.T, dir string, every int, fsync func(*os.File) error) *journal.Writer {
	t.Helper()
	w, err := journal.Open(dir, journal.Options{SyncEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	w.SetFsync(fsync)
	return w
}

// runJob submits a job and waits for it to succeed, all within
// patience: a queue stalled behind an fsync fails here.
func runJob(t *testing.T, q *jobs.Queue, name string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), patience)
	defer cancel()
	submitted := make(chan string, 1)
	go func() {
		id, err := q.SubmitSpec(jobs.Spec{Kind: "noop", Payload: json.RawMessage(`"` + name + `"`)},
			func(context.Context) (any, error) { return name, nil })
		if err != nil {
			t.Errorf("submit %s: %v", name, err)
		}
		submitted <- id
	}()
	var id string
	select {
	case id = <-submitted:
	case <-ctx.Done():
		t.Fatalf("SubmitSpec(%s) did not return", name)
	}
	snap, ok, err := q.Wait(ctx, id)
	if err != nil || !ok || snap.State != jobs.Succeeded {
		t.Fatalf("job %s: state %q, known %v, err %v", name, snap.State, ok, err)
	}
	return id
}

// copyDir is the crash image a SIGKILL would leave: whatever write(2)
// completed, fsynced or not.
func copyDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		src, err := os.Open(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		dst, err := os.Create(filepath.Join(to, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(dst, src); err != nil {
			t.Fatal(err)
		}
		src.Close()
		if err := dst.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// TestQueueNotStalledByFsyncInFlight: while the journal's fsync is held
// open, SubmitSpec, a worker's start and finish, Wait and Get all
// complete, and a crash image taken at that moment recovers exactly the
// one unfinished job. At the parent commit the append that reached
// SyncEvery ran the fsync under the queue's lock, and every one of
// these calls waited for it.
func TestQueueNotStalledByFsyncInFlight(t *testing.T) {
	const every = 8
	dir := t.TempDir()
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	w := openWAL(t, dir, every, func(f *os.File) error {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return f.Sync()
	})
	q := jobs.New(jobs.Config{Workers: 1, Journal: w})

	runJob(t, q, "first")  // records 1-3
	runJob(t, q, "second") // records 4-6
	// The third job's start is the 8th record: it hands the batch to the
	// committer, whose fsync now stays open. The job finishes all the same.
	third := runJob(t, q, "third")
	select {
	case <-entered:
	case <-time.After(patience):
		t.Fatal("the committer's fsync never began")
	}
	got := make(chan jobs.Snapshot, 1)
	go func() { snap, _ := q.Get(third); got <- snap }()
	select {
	case snap := <-got:
		if snap.State != jobs.Succeeded {
			t.Fatalf("Get(third) = %+v", snap)
		}
	case <-time.After(patience):
		t.Fatal("Get waited for the fsync")
	}
	runJob(t, q, "fourth") // records 10-12, still below the bound of 15

	// A job that is accepted and started but not finished (records 13, 14).
	park, running := make(chan struct{}), make(chan struct{})
	fifth, err := q.SubmitSpec(jobs.Spec{Kind: "parked", Payload: json.RawMessage(`"fifth"`)},
		func(ctx context.Context) (any, error) {
			close(running)
			select {
			case <-park:
				return "fifth", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-running:
	case <-time.After(patience):
		t.Fatal("the fifth job never started")
	}
	if st := w.Stats(); st.Appends != 14 || st.Syncs != 0 {
		t.Fatalf("journal with the fsync still in flight: %+v", st)
	}

	// SIGKILL now: nothing Append returned for is lost, fsynced or not.
	pending, rst, err := jobs.Recover(context.Background(), copyDir(t, dir))
	if err != nil || rst.Records != 14 || rst.TornTail || rst.Quarantined != 0 {
		t.Fatalf("recover over the crash image: %+v, %v", rst, err)
	}
	if len(pending) != 1 || pending[0].ID != fifth || pending[0].Spec.Kind != "parked" || string(pending[0].Spec.Payload) != `"fifth"` {
		t.Fatalf("pending set %+v, want only %s", pending, fifth)
	}

	close(release)
	close(park)
	ctx, cancel := context.WithTimeout(context.Background(), patience)
	defer cancel()
	if snap, _, err := q.Wait(ctx, fifth); err != nil || snap.State != jobs.Succeeded {
		t.Fatalf("fifth job: %+v, %v", snap, err)
	}
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.WALErrors != 0 || st.Succeeded != 5 {
		t.Fatalf("queue stats: %+v", st)
	}
	pending, rst, err = jobs.Recover(context.Background(), dir)
	if err != nil || len(pending) != 0 || rst.Records != 15 {
		t.Fatalf("recover after a clean close: %d pending, %+v, %v", len(pending), rst, err)
	}
}

// TestFsyncErrorReachesJobsAsOneWALError: a failed background fsync is
// one wal_errors on the queue and one sync_errors on the writer, and
// costs no job.
func TestFsyncErrorReachesJobsAsOneWALError(t *testing.T) {
	errDisk := errors.New("disk gone")
	var calls atomic.Int32
	w := openWAL(t, t.TempDir(), 3, func(f *os.File) error {
		if calls.Add(1) == 1 {
			return errDisk
		}
		return f.Sync()
	})
	q := jobs.New(jobs.Config{Workers: 1, Journal: w})
	runJob(t, q, "first") // its third record starts the commit that fails
	w.WaitCommitter()
	if st := q.Stats(); st.WALErrors != 0 {
		t.Fatalf("wal_errors before anyone was told: %+v", st)
	}
	runJob(t, q, "second")
	runJob(t, q, "third")
	ctx, cancel := context.WithTimeout(context.Background(), patience)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.WALErrors != 1 || st.Succeeded != 3 {
		t.Fatalf("queue stats: %+v", st)
	}
	if st := w.Stats(); st.SyncErrors != 1 || st.AppendErrors != 1 || st.Appends != 9 {
		t.Fatalf("journal stats: %+v", st)
	}
}
