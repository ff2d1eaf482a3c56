package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/advise"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/simcache"
)

// chaosPlan arms every fault site at p=0.2 with fixed per-site seeds.
// Each site carries a fault kind the pipeline is supposed to survive:
// worker and repetition panics are recovered and retried, fill errors
// degrade to direct baseline builds, decode errors read as 400 (the
// client resubmits), handler delays just add latency.
func chaosPlan() faultinject.Plan {
	return faultinject.Plan{
		faultinject.SiteJobWorker:  {Kind: faultinject.KindPanic, Probability: 0.2, Seed: 101},
		faultinject.SiteCacheFill:  {Kind: faultinject.KindError, Probability: 0.2, Seed: 102},
		faultinject.SiteRepetition: {Kind: faultinject.KindPanic, Probability: 0.2, Seed: 103},
		faultinject.SiteHandler:    {Kind: faultinject.KindDelay, Probability: 0.2, Seed: 104, DelayNanos: int64(2 * time.Millisecond)},
		faultinject.SiteDecode:     {Kind: faultinject.KindError, Probability: 0.2, Seed: 105},
	}
}

// chaosServer builds a server tuned for the chaos run: a deep retry
// budget (p=0.2 worker panics make multi-attempt jobs routine).
func chaosServer(t *testing.T) (*httptest.Server, *jobs.Queue, func()) {
	t.Helper()
	q := jobs.New(jobs.Config{Workers: 4, Capacity: 128, Retain: 1024})
	s, err := New(Config{
		Queue: q, Cache: simcache.New(0), Advisor: advise.NewService(advise.Config{}),
		JobRetries: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	teardown := func() {
		ts.Close()
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := q.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}
	// Registered as a cleanup too (teardown is idempotent) so an early
	// t.Fatal still shuts the pool down.
	t.Cleanup(teardown)
	return ts, q, teardown
}

// chaosJob runs one simulate request to completion, retrying rejected
// submissions (injected decode faults answer 400, sheds answer 503)
// and resubmitting failed jobs. It returns the decoded result.
func chaosJob(t *testing.T, base string, req SimulateRequest) SimulateResult {
	t.Helper()
	for resubmit := 0; resubmit < 5; resubmit++ {
		var sub submitted
		code := 0
		for try := 0; try < 100; try++ {
			if code = postJSON(t, base+"/v1/simulate", req, &sub); code == http.StatusAccepted {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if code != http.StatusAccepted {
			t.Fatalf("seed %d: submission never accepted (last status %d)", req.Seed, code)
		}
		state, raw, errMsg := pollJob(t, base, sub.ID)
		if state != "succeeded" {
			t.Logf("seed %d: job %s (%s); resubmitting", req.Seed, state, errMsg)
			continue
		}
		var res SimulateResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("seed %d: decode result: %v", req.Seed, err)
		}
		return res
	}
	t.Fatalf("seed %d: job kept failing after resubmissions", req.Seed)
	return SimulateResult{}
}

// sameOutcome compares the simulation-visible part of two results,
// ignoring operational fields (cache hit/bypass, wall times) that
// legitimately differ under faults.
func sameOutcome(a, b SimulateResult) bool {
	if a.BaselineMakespanNanos != b.BaselineMakespanNanos ||
		a.Saturated != b.Saturated || a.SaturatedReps != b.SaturatedReps ||
		a.Reps != b.Reps || a.Ranks != b.Ranks {
		return false
	}
	if (a.Slowdown == nil) != (b.Slowdown == nil) {
		return false
	}
	return a.Slowdown == nil || *a.Slowdown == *b.Slowdown
}

// TestChaosFiftyJobsBitIdentical is the PR's acceptance run: with every
// fault site armed at p=0.2 under a fixed plan, 50 simulate jobs must
// all complete with results bit-identical to an unfaulted pass, the
// daemon must survive without leaking goroutines, the queue must drain
// to empty, and /metrics must show the machinery actually engaged
// (panics recovered, retries spent, baselines built past the cache).
func TestChaosFiftyJobsBitIdentical(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	const njobs = 50

	reqFor := func(seed uint64) SimulateRequest {
		r := simReq()
		r.Seed = seed
		return r
	}

	// Reference pass: same 50 requests against a clean server.
	ref := make(map[uint64]SimulateResult, njobs)
	{
		ts, _, teardown := chaosServer(t)
		for seed := uint64(1); seed <= njobs; seed++ {
			ref[seed] = chaosJob(t, ts.URL, reqFor(seed))
		}
		teardown()
	}

	baseGoroutines := runtime.NumGoroutine()

	ts, q, teardown := chaosServer(t)
	if err := faultinject.Arm(chaosPlan()); err != nil {
		t.Fatal(err)
	}

	for seed := uint64(1); seed <= njobs; seed++ {
		got := chaosJob(t, ts.URL, reqFor(seed))
		if !sameOutcome(got, ref[seed]) {
			t.Fatalf("seed %d: faulted result diverged:\n got %+v (slowdown %+v)\nwant %+v (slowdown %+v)",
				seed, got, got.Slowdown, ref[seed], ref[seed].Slowdown)
		}
	}

	// Every armed site was exercised, and the chaos left fingerprints
	// in the operational counters. (The plan arms the single-node
	// pipeline sites; cluster.shard has its own drill in
	// internal/cluster.)
	snap := faultinject.Snapshot()
	if len(snap.Sites) != len(chaosPlan()) {
		t.Fatalf("sites in snapshot: %d, want %d", len(snap.Sites), len(chaosPlan()))
	}
	for _, site := range snap.Sites {
		if site.Evals == 0 || site.Fired == 0 {
			t.Fatalf("site %s never engaged: %+v", site.Site, site)
		}
	}
	var m Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.Jobs.PanicsRecovered == 0 {
		t.Fatal("no panics recovered despite p=0.2 worker panics")
	}
	if m.Jobs.Retries == 0 {
		t.Fatal("no job retries recorded")
	}
	// Every injected fill error degraded its caller to a direct build
	// (coalesced waiters on a failed fill each bypass too).
	for _, site := range snap.Sites {
		if site.Site == faultinject.SiteCacheFill && m.CacheBypasses < site.Fired {
			t.Fatalf("cache_bypasses = %d < %d injected fill errors", m.CacheBypasses, site.Fired)
		}
	}
	if m.CacheBypasses == 0 {
		t.Fatal("no cache bypasses despite injected fill errors")
	}

	// The daemon is still healthy, and the queue drained monotonically
	// to empty (every accepted job reached a terminal state).
	faultinject.Disarm()
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("daemon unhealthy after chaos: %d", code)
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("queue depth %d after all jobs finished", d)
	}
	js := q.Stats()
	if js.Succeeded < njobs {
		t.Fatalf("succeeded %d < %d submitted", js.Succeeded, njobs)
	}

	// No goroutine leaks once the server is torn down.
	teardown()
	deadline := time.Now().Add(15 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseGoroutines+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before chaos", n, baseGoroutines)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosSweepBitIdentical arms the chaos plan's core.repetition
// entry on a figure sweep. A sweep job runs dozens of repetitions, so
// at p=0.2 nearly every attempt of the job meets a fault somewhere:
// the job retry budget alone cannot finish it, and it is the in-place
// same-seed repetition retry that does — bit-identically.
func TestChaosSweepBitIdentical(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	ts, _ := newRobustServer(t, jobs.Config{}, func(c *Config) { c.JobRetries = 8 })
	run := func() json.RawMessage {
		req := SweepRequest{Figure: "4", Nodes: 16, Iterations: 2, Reps: 4, Seed: 1, Workloads: []string{"minife"}}
		var sub submitted
		if code := postJSON(t, ts.URL+"/v1/sweep", req, &sub); code != http.StatusAccepted {
			t.Fatalf("submit status %d", code)
		}
		state, result, errMsg := pollJob(t, ts.URL, sub.ID)
		if state != "succeeded" {
			t.Fatalf("sweep %s (%s)", state, errMsg)
		}
		return result
	}
	want := run()
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteRepetition: chaosPlan()[faultinject.SiteRepetition],
	}); err != nil {
		t.Fatal(err)
	}
	if got := run(); !bytes.Equal(got, want) {
		t.Fatal("faulted sweep diverged from the unfaulted one")
	}
	if st := faultinject.Snapshot(); len(st.Sites) != 1 || st.Sites[0].Fired == 0 {
		t.Fatalf("core.repetition never fired: %+v", st)
	}
}
