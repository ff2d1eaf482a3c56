package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/journal"
)

// cannedJobsWAL is a job history with every op: five acceptances (with
// and without payload, tenant, request id, retry budget), started and
// retried narration, one job closed by each terminal op, and two jobs
// still open at the end. The queue no longer writes narration or
// payload-less acceptances, so this is a log an older daemon left
// behind; the restart re-journals it without them.
func cannedJobsWAL() []walRecord {
	sim := json.RawMessage(`{"workload":"minife","nodes":16,"iters":2,"seed":1,"reps":1}`)
	sweep := json.RawMessage(`{"figure":"4","nodes":16,"seed":2}`)
	return []walRecord{
		{Op: opAccepted, ID: "j000001-aa", Kind: "simulate", RequestID: "r-1", Retries: 2, Payload: sim},
		{Op: opStarted, ID: "j000001-aa"},
		{Op: opAccepted, ID: "j000002-bb", Kind: "sweep", Tenant: "t-a", Payload: sweep},
		{Op: opRetried, ID: "j000001-aa"},
		{Op: opAccepted, ID: "j000003-cc", Kind: "simulate"},
		{Op: opSucceeded, ID: "j000002-bb"},
		{Op: opStarted, ID: "j000003-cc"},
		{Op: opAccepted, ID: "j000004-dd", Kind: "simulate", RequestID: "r-4", Payload: sim},
		{Op: opFailed, ID: "j000001-aa"},
		{Op: opRetried, ID: "j000003-cc"},
		{Op: opAccepted, ID: "j000005-ee", Kind: "sweep", Tenant: "t-b", Retries: 1, Payload: sweep},
		{Op: opCanceled, ID: "j000003-cc"},
		{Op: opStarted, ID: "j000004-dd"},
	}
}

// foldJobs is the direct fold of a record prefix: the jobs accepted
// with a payload and not closed, in acceptance order, with their specs.
func foldJobs(recs []walRecord) []PendingJob {
	open := map[string]Spec{}
	var order []string
	for _, r := range recs {
		switch r.Op {
		case opAccepted:
			if _, ok := open[r.ID]; !ok {
				order = append(order, r.ID)
			}
			open[r.ID] = Spec{Kind: r.Kind, RequestID: r.RequestID, Tenant: r.Tenant, Retries: r.Retries, Payload: r.Payload}
		case opSucceeded, opFailed, opCanceled:
			delete(open, r.ID)
		}
	}
	var out []PendingJob
	for _, id := range order {
		if s, ok := open[id]; ok && len(s.Payload) > 0 {
			out = append(out, PendingJob{ID: id, Spec: s})
		}
	}
	return out
}

// restartImage writes a log image — the first n bytes of a one-segment
// log — into a fresh directory: what a SIGKILL leaves, since it loses
// nothing past write(2), cut anywhere.
func restartImage(t *testing.T, seg string, data []byte, n int) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, seg), data[:n], 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// writeLog appends payloads through a journal writer and returns the
// one segment's name and bytes, and the offset each record ends at.
func writeLog(t *testing.T, payloads [][]byte) (string, []byte, []int) {
	t.Helper()
	dir := t.TempDir()
	w, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ends := []int{0}
	for _, p := range payloads {
		if err := w.Append(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, ends[len(ends)-1]+8+len(p))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v: %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil || len(data) != ends[len(ends)-1] {
		t.Fatalf("segment of %d bytes, want %d: %v", len(data), ends[len(ends)-1], err)
	}
	return filepath.Base(segs[0]), data, ends
}

// restartQueue restarts a queue over dir the way the daemon does
// (cmd/cesimd): journal.Restart, with Recover as the replay and
// SubmitRecovered as the re-journal. The recovered jobs block, so none
// finishes; crash stops the generation — closes the writer, then lets
// the jobs go — leaving only what the restart wrote: one acceptance per
// recovered job, in recovery order.
func restartQueue(t *testing.T, dir string) (pending []PendingJob, kept error, crash func()) {
	t.Helper()
	release := make(chan struct{})
	var q *Queue
	w, _, kept, err := journal.Restart(context.Background(), dir, func(ctx context.Context, dir string) (st journal.ReplayStats, err error) {
		pending, st, err = Recover(ctx, dir)
		return st, err
	}, func(w *journal.Writer) error {
		q = New(Config{Workers: 1, Capacity: 64, Journal: w})
		for _, p := range pending {
			if _, err := q.SubmitRecovered(p, func(context.Context) (any, error) { <-release; return nil, nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pending, kept, func() {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		close(release)
		if err := q.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJobsRestartAtEveryRecordBoundary cuts the canned WAL after every
// record k, and inside record k+1 (its header, and its payload), as a
// SIGKILL may. Each image must restart to the direct fold of the first
// k records; so must a second restart, over the directory the first
// compacted. Then, for every j, journal.append fails with a budget of
// j, so the restart's first j appends — the j-th is the last — fail:
// that restart keeps the pre-restart segments, and the next recovers
// the same fold and compacts.
func TestJobsRestartAtEveryRecordBoundary(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	recs := cannedJobsWAL()
	payloads := make([][]byte, len(recs))
	for i, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = b
	}
	seg, data, ends := writeLog(t, payloads)

	check := func(label string, got []PendingJob, want []PendingJob) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recovered %+v\nwant the fold %+v", label, got, want)
		}
	}
	for k := 0; k <= len(recs); k++ {
		want := foldJobs(recs[:k])
		cuts := []int{ends[k]}
		if k < len(recs) {
			cuts = append(cuts, ends[k]+3, ends[k]+8+len(payloads[k])/2)
		}
		for _, cut := range cuts {
			label := fmt.Sprintf("k=%d cut=%d", k, cut)
			dir := restartImage(t, seg, data, cut)
			got, kept, crash := restartQueue(t, dir)
			crash()
			check(label+" restart", got, want)
			if kept != nil {
				t.Fatalf("%s: kept the pre-restart segments: %v", label, kept)
			}
			again, kept, crash := restartQueue(t, dir)
			crash()
			check(label+" restart over the compacted log", again, want)
			if kept != nil {
				t.Fatalf("%s: second restart kept the pre-restart segments: %v", label, kept)
			}
		}

		for j := 1; j <= len(want); j++ { // the restart appends one acceptance per job
			label := fmt.Sprintf("k=%d, first %d re-journal appends failed", k, j)
			dir := restartImage(t, seg, data, ends[k])
			if err := faultinject.Arm(faultinject.Plan{
				faultinject.SiteJournalAppend: {Kind: faultinject.KindError, Probability: 1, Count: uint64(j)},
			}); err != nil {
				t.Fatal(err)
			}
			_, kept, crash := restartQueue(t, dir)
			faultinject.Disarm()
			crash()
			if kept == nil {
				t.Fatalf("%s: compacted anyway", label)
			}
			got, kept, crash := restartQueue(t, dir)
			crash()
			check(label+", next restart", got, want)
			if kept != nil {
				t.Fatalf("%s: the clean restart after it kept the pre-restart segments: %v", label, kept)
			}
		}
	}
}
