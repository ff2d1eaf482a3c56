package journal_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/journal"
)

// Replay hands its callback a view into a buffer it reuses, so the
// layers that rebuild state from a journal must copy what they keep.
// These tests replay the same log twice — as it is, and with every
// record's bytes overwritten the moment the callback returns
// (SetPoisonViews) — and require the same recovered state.

// TestRecoveredJobsOwnTheirBytes: jobs.Recover's PendingJobs, payloads
// included, are copies.
func TestRecoveredJobsOwnTheirBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.OpenSized(dir, journal.Options{}, 512)
	if err != nil {
		t.Fatal(err)
	}
	q := jobs.New(jobs.Config{Workers: 2, Journal: w})
	block := make(chan struct{})
	payload := json.RawMessage(`{"workload":"minife","nodes":16,"iters":2,"mtbce_ns":500000000,"mode":"firmware-emca","seed":1,"reps":1}`)
	for i := 0; i < 6; i++ {
		if _, err := q.SubmitSpec(jobs.Spec{Kind: "simulate", RequestID: "r-view", Tenant: "t\"1", Retries: i, Payload: payload},
			func(context.Context) (any, error) { <-block; return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil { // the crash: six jobs accepted, none finished
		t.Fatal(err)
	}
	close(block)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	want, wantSt, err := jobs.Recover(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	journal.SetPoisonViews(true)
	defer journal.SetPoisonViews(false)
	got, gotSt, err := jobs.Recover(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 6 || wantSt.Segments < 2 || gotSt != wantSt {
		t.Fatalf("recovered %d jobs, stats %+v and %+v: want 6 jobs over several segments", len(want), wantSt, gotSt)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a recovered job holds a view of the replay buffer\n got: %+v\nwant: %+v", got, want)
	}
	for _, p := range got {
		if !bytes.Equal(p.Spec.Payload, payload) || p.Spec.Tenant != "t\"1" {
			t.Fatalf("job %s: recovered spec %+v", p.ID, p.Spec)
		}
	}
}

// TestRecoveredCoordinatorOwnsItsBytes: a coordinator recovered from a
// journal holding a finished shard's fragment merges the same figure
// whether or not the replayed bytes outlive the callback.
func TestRecoveredCoordinatorOwnsItsBytes(t *testing.T) {
	ctx := context.Background()
	opts := core.Options{Nodes: 16, Iterations: 2, Reps: 1, Seed: 1, Workloads: []string{"minife", "hpcg"}, Figures: []string{"4"}}
	// runCell leases the next cell and reports its fragment.
	runCell := func(c *cluster.Coordinator) {
		t.Helper()
		worker, _ := c.Register("", "")
		g, err := c.Lease(worker)
		if err != nil || g == nil {
			t.Fatalf("lease: %+v, %v", g, err)
		}
		cell := g.Spec.Options()
		cell.Workloads = []string{g.Cell.Workload}
		fig, err := core.RunFigure(ctx, g.Cell.Figure, cell)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Report(worker, g.SweepID, g.Key, fig, ""); err != nil {
			t.Fatal(err)
		}
	}
	// recoverAndFinish opens a coordinator over a log holding the sweep
	// with one of its two cells done, finishes it, and returns the merge.
	recoverAndFinish := func(poison bool) []byte {
		t.Helper()
		dir := t.TempDir()
		c1, _, err := cluster.OpenCoordinator(ctx, cluster.Config{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := c1.CreateSweep(cluster.Spec(opts))
		if err != nil {
			t.Fatal(err)
		}
		runCell(c1)
		if err := c1.Close(); err != nil {
			t.Fatal(err)
		}
		journal.SetPoisonViews(poison)
		c2, st, err := cluster.OpenCoordinator(ctx, cluster.Config{}, dir)
		journal.SetPoisonViews(false)
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		if res, err := c2.Sweep(id); err != nil || res.Done != 1 || res.Total != 2 || st.Records < 3 {
			t.Fatalf("recovered sweep %+v (%v) from %+v", res, err, st)
		}
		runCell(c2)
		res, err := c2.Sweep(id)
		if err != nil || res.State != "done" {
			t.Fatalf("finished sweep: %+v, %v", res, err)
		}
		var buf bytes.Buffer
		if err := res.Figures["4"].WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want, err := core.Figure4(opts)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := want.WriteJSON(&direct); err != nil {
		t.Fatal(err)
	}
	for _, poison := range []bool{false, true} {
		if got := recoverAndFinish(poison); !bytes.Equal(got, direct.Bytes()) {
			t.Fatalf("poisoned views = %v: the recovered merge differs from the sequential driver", poison)
		}
	}
}
