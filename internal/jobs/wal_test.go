package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// openJournal builds a real WAL writer in a temp dir.
func openJournal(t *testing.T, dir string) *journal.Writer {
	t.Helper()
	w, err := journal.Open(dir, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestJournalRecoverPendingJobs(t *testing.T) {
	dir := t.TempDir()
	w := openJournal(t, dir)
	q := New(Config{Workers: 1, Journal: w})

	// One job completes; one is accepted but never run (its Func blocks
	// until we let go, so the accepted record lands without a terminal).
	id1, err := q.SubmitSpec(Spec{Kind: "fast", Payload: json.RawMessage(`{"n":1}`)},
		func(ctx context.Context) (any, error) { return "done", nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := q.Wait(context.Background(), id1); !ok || err != nil {
		t.Fatalf("wait: ok=%v err=%v", ok, err)
	}

	block := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(block) })
	id2, err := q.SubmitSpec(Spec{
		Kind:      "slow",
		RequestID: "req-abc",
		Retries:   2,
		Payload:   json.RawMessage(`{"n":2}`),
	}, func(ctx context.Context) (any, error) { <-block; return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	// Give the worker time to journal the started record; the job then
	// blocks forever — the shape of a crash mid-run.
	time.Sleep(50 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	pending, st, err := Recover(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 0 {
		t.Fatalf("clean journal quarantined segments: %+v", st)
	}
	if len(pending) != 1 {
		t.Fatalf("pending jobs: %d, want 1 (%+v)", len(pending), pending)
	}
	p := pending[0]
	if p.ID != id2 || p.Spec.Kind != "slow" || p.Spec.RequestID != "req-abc" || p.Spec.Retries != 2 {
		t.Fatalf("recovered job mismatch: %+v", p)
	}
	if string(p.Spec.Payload) != `{"n":2}` {
		t.Fatalf("payload not preserved: %q", p.Spec.Payload)
	}
}

func TestSubmitRecoveredPreservesID(t *testing.T) {
	dir := t.TempDir()
	w := openJournal(t, dir)
	q := New(Config{Workers: 1, Journal: w})
	p := PendingJob{ID: "j000042-deadbeef", Spec: Spec{Kind: "sweep", RequestID: "r-1"}}
	id, err := q.SubmitRecovered(p, func(ctx context.Context) (any, error) { return 7, nil })
	if err != nil {
		t.Fatal(err)
	}
	if id != p.ID {
		t.Fatalf("recovered submit changed the id: %s", id)
	}
	snap, ok, err := q.Wait(context.Background(), id)
	if !ok || err != nil || snap.State != Succeeded {
		t.Fatalf("recovered job did not run: ok=%v err=%v snap=%+v", ok, err, snap)
	}
	if q.Stats().Recovered != 1 {
		t.Fatalf("recovered counter: %+v", q.Stats())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The extended log replays to an empty pending set: acceptance was
	// re-journaled and the terminal record closes it.
	pending, _, err := Recover(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("completed recovered job still pending: %+v", pending)
	}
}

// TestRecoverTornTailAcrossTwoRestarts mirrors the daemon's recovery
// cycle — replay, THEN open a new writer, then re-submit — across two
// crashes, the first of which tears the WAL's tail mid-append. After
// the second crash the torn segment is no longer the log's last; it
// must still replay its whole records instead of being quarantined, or
// the unfinished job silently vanishes on the second restart.
func TestRecoverTornTailAcrossTwoRestarts(t *testing.T) {
	dir := t.TempDir()
	w1 := openJournal(t, dir)
	q1 := New(Config{Workers: 1, Journal: w1})
	block := make(chan struct{})
	defer close(block)
	id, err := q1.SubmitSpec(Spec{Kind: "slow", RequestID: "r-torn", Payload: json.RawMessage(`{}`)},
		func(ctx context.Context) (any, error) { <-block; return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	// SIGKILL mid-append: partial record bytes at the tail, no Close.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("wal dir: %v (%d)", err, len(entries))
	}
	seg := filepath.Join(dir, entries[len(entries)-1].Name())
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart 1, in daemon order: replay first, then open the writer,
	// then re-submit (which re-journals the acceptance).
	pending1, st1, err := Recover(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending1) != 1 || pending1[0].ID != id {
		t.Fatalf("first recovery: %+v", pending1)
	}
	if !st1.TornTail || st1.Quarantined != 0 {
		t.Fatalf("first recovery stats: %+v", st1)
	}
	w2 := openJournal(t, dir)
	q2 := New(Config{Workers: 1, Journal: w2})
	if _, err := q2.SubmitRecovered(pending1[0],
		func(ctx context.Context) (any, error) { <-block; return nil, nil }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	// Second SIGKILL (no Close), restart 2: the once-torn segment now
	// sits behind the writer's newer segments.
	pending2, st2, err := Recover(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Quarantined != 0 {
		t.Fatalf("second recovery quarantined valid history: %+v", st2)
	}
	if len(pending2) != 1 || pending2[0].ID != id || pending2[0].Spec.RequestID != "r-torn" {
		t.Fatalf("job lost across second restart: %+v", pending2)
	}
}

// TestRecoverTwiceSameState: same WAL bytes, same recovered state.
func TestRecoverTwiceSameState(t *testing.T) {
	dir := t.TempDir()
	w := openJournal(t, dir)
	q := New(Config{Workers: 1, Journal: w})
	block := make(chan struct{})
	defer close(block)
	for i := 0; i < 3; i++ {
		if _, err := q.SubmitSpec(Spec{Kind: "k", Payload: json.RawMessage(`{}`)},
			func(ctx context.Context) (any, error) { <-block; return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, _, err := Recover(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Recover(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("pending: %d and %d, want 3 and 3", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("replay order diverged at %d: %s vs %s", i, a[i].ID, b[i].ID)
		}
	}
}

// recordingAppender decodes and keeps every record appended through it.
type recordingAppender struct {
	mu   sync.Mutex
	recs []walRecord
}

func (a *recordingAppender) Append(_ context.Context, b []byte) error {
	var rec walRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.recs = append(a.recs, rec)
	return nil
}

// TestJournalWritesAcceptedAndTerminalOnly: a journaled job costs two
// records, its acceptance and its terminal one, in the order the queue
// applied them — whether it succeeds after two retries, is cancelled
// while queued, or fails. A job without a payload, which no restart
// could rebuild, costs none.
func TestJournalWritesAcceptedAndTerminalOnly(t *testing.T) {
	var wal recordingAppender
	q := New(Config{Workers: 1, Journal: &wal})
	gate := make(chan struct{})
	var calls atomic.Int32
	flaky, err := q.SubmitSpec(Spec{Kind: "flaky", Retries: 2, Payload: json.RawMessage(`{"n":1}`)},
		func(context.Context) (any, error) {
			switch calls.Add(1) {
			case 1:
				<-gate
				return nil, transientErr{}
			case 2:
				return nil, transientErr{}
			}
			return "ok", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); q.Stats().Running == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the flaky job never started")
		}
	}
	// The lone worker is busy, so this one waits in the queue.
	queued, err := q.SubmitSpec(Spec{Kind: "queued", RequestID: "r-q", Payload: json.RawMessage(`{"n":2}`)}, func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !q.Cancel(queued) {
		t.Fatal("the queued job was not live")
	}
	doomed, err := q.SubmitSpec(Spec{Kind: "doomed", Tenant: "t", Payload: json.RawMessage(`{"n":3}`)}, func(context.Context) (any, error) { return nil, errors.New("boom") })
	if err != nil {
		t.Fatal(err)
	}
	unjournaled, err := q.SubmitSpec(Spec{Kind: "cluster-shard", RequestID: "r-s"}, func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	if snap := waitTerminal(t, q, flaky); snap.State != Succeeded || snap.Attempts != 3 {
		t.Fatalf("flaky job: %+v", snap)
	}
	if snap := waitTerminal(t, q, doomed); snap.State != Failed {
		t.Fatalf("doomed job: %+v", snap)
	}
	if snap := waitTerminal(t, q, unjournaled); snap.State != Succeeded {
		t.Fatalf("payload-less job: %+v", snap)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []walRecord{
		{Op: opAccepted, ID: flaky, Kind: "flaky", Retries: 2, Payload: json.RawMessage(`{"n":1}`)},
		{Op: opAccepted, ID: queued, Kind: "queued", RequestID: "r-q", Payload: json.RawMessage(`{"n":2}`)},
		{Op: opCanceled, ID: queued},
		{Op: opAccepted, ID: doomed, Kind: "doomed", Tenant: "t", Payload: json.RawMessage(`{"n":3}`)},
		{Op: opSucceeded, ID: flaky},
		{Op: opFailed, ID: doomed},
	}
	wal.mu.Lock()
	defer wal.mu.Unlock()
	if !reflect.DeepEqual(wal.recs, want) {
		t.Fatalf("journaled\n%+v\nwant\n%+v", wal.recs, want)
	}
	if st := q.Stats(); st.Retries != 2 || st.WALErrors != 0 {
		t.Fatalf("queue stats: %+v", st)
	}
}

// failingAppender fails every append, standing in for a full disk.
type failingAppender struct{}

func (failingAppender) Append(context.Context, []byte) error {
	return errors.New("disk full")
}

// TestJournalFailureDegradesNotFails: WAL trouble must never fail the
// job itself, only count and log.
func TestJournalFailureDegradesNotFails(t *testing.T) {
	var buf strings.Builder
	q := New(Config{
		Workers: 1,
		Journal: failingAppender{},
		Log:     log.New(&buf, "", 0),
	})
	id, err := q.SubmitSpec(Spec{Kind: "k", Payload: json.RawMessage(`{}`)}, func(ctx context.Context) (any, error) { return "ok", nil })
	if err != nil {
		t.Fatalf("submit failed on journal error: %v", err)
	}
	snap, ok, err := q.Wait(context.Background(), id)
	if !ok || err != nil || snap.State != Succeeded {
		t.Fatalf("job failed on journal error: %+v", snap)
	}
	if st := q.Stats(); st.WALErrors == 0 {
		t.Fatalf("wal errors not counted: %+v", st)
	}
	if !strings.Contains(buf.String(), "journal append failed") {
		t.Fatalf("journal failure not logged: %q", buf.String())
	}
}

// TestDrainAbandonmentLogged is the satellite: a drain that times out
// with queued-unstarted jobs must log each with its request id and
// count them, not discard them silently.
func TestDrainAbandonmentLogged(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	safe := log.New(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), "", 0)

	q := New(Config{Workers: 1, Capacity: 8, Log: safe})
	block := make(chan struct{})
	defer close(block)
	// First job occupies the lone worker; the rest stay queued.
	if _, err := q.SubmitSpec(Spec{Kind: "busy"}, func(ctx context.Context) (any, error) { <-block; return nil, nil }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if _, err := q.SubmitSpec(Spec{Kind: "queued", RequestID: "req-q"},
			func(ctx context.Context) (any, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); err == nil {
		t.Fatal("drain finished although a job blocks forever")
	}
	if st := q.Stats(); st.Abandoned != 2 {
		t.Fatalf("abandoned: %d, want 2 (%+v)", st.Abandoned, st)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "abandoning queued job") || !strings.Contains(out, "request_id=req-q") {
		t.Fatalf("abandonment log missing request ids: %q", out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
