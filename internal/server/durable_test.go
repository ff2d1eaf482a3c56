package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/advise"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/simcache"
	"repro/internal/tenant"
)

// newDurableServer builds a server with the durable tier attached: a
// result store, a tenant registry (when reg != nil), and optionally a
// journaled queue.
func newDurableServer(t *testing.T, storeDir string, reg *tenant.Registry, q *jobs.Queue) (*Server, *httptest.Server, *simcache.Store) {
	t.Helper()
	store, err := simcache.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if q == nil {
		q = jobs.New(jobs.Config{Workers: 2})
	}
	s, err := New(Config{
		Queue: q, Cache: simcache.New(0),
		ResultStore: store, Tenants: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = q.Drain(ctx)
	})
	return s, ts, store
}

// postTenant posts v with an X-Tenant header, returning status and the
// Retry-After header.
func postTenant(t *testing.T, url, tenantName string, v any) (int, string, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenantName != "" {
		req.Header.Set(TenantHeader, tenantName)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header.Get("Retry-After"), out.Bytes()
}

func sweepReq() SweepRequest {
	return SweepRequest{Figure: "4", Nodes: 16, Iterations: 2, Reps: 1, Seed: 1, Workloads: []string{"minife"}}
}

func TestTenantRateLimit429(t *testing.T) {
	reg := tenant.New(tenant.Config{Defaults: tenant.Limits{RatePerSec: 0.001, Burst: 1}})
	_, ts, _ := newDurableServer(t, t.TempDir(), reg, nil)

	code, _, body := postTenant(t, ts.URL+"/v1/sweep", "acme", sweepReq())
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", code, body)
	}
	code, after, body := postTenant(t, ts.URL+"/v1/sweep", "acme", sweepReq())
	if code != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d %s", code, body)
	}
	if after == "" {
		t.Fatal("429 missing Retry-After")
	}
	if !strings.Contains(string(body), "rate limited") {
		t.Fatalf("429 body: %s", body)
	}
	// Other tenants are unaffected: each has its own bucket.
	if code, _, body := postTenant(t, ts.URL+"/v1/sweep", "other", sweepReq()); code != http.StatusAccepted {
		t.Fatalf("other tenant: %d %s", code, body)
	}

	// /metrics reports the per-tenant section and the rejection.
	var snap Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if snap.TenantRejections != 1 {
		t.Fatalf("tenant rejections: %d", snap.TenantRejections)
	}
	var acme *tenant.Stats
	for i := range snap.Tenants {
		if snap.Tenants[i].Tenant == "acme" {
			acme = &snap.Tenants[i]
		}
	}
	if acme == nil || acme.RateLimited != 1 || acme.Admitted != 1 {
		t.Fatalf("tenant metrics: %+v", snap.Tenants)
	}
}

func TestTenantJobQuota429(t *testing.T) {
	reg := tenant.New(tenant.Config{Defaults: tenant.Limits{MaxJobs: 1}})
	// A single worker held busy keeps the first job in flight.
	q := jobs.New(jobs.Config{Workers: 1})
	block := make(chan struct{})
	defer close(block)
	if _, err := q.SubmitSpec(jobs.Spec{Kind: "hold"}, func(ctx context.Context) (any, error) { <-block; return nil, nil }); err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newDurableServer(t, t.TempDir(), reg, q)

	code, _, body := postTenant(t, ts.URL+"/v1/sweep", "capped", sweepReq())
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", code, body)
	}
	code, after, body := postTenant(t, ts.URL+"/v1/sweep", "capped", sweepReq())
	if code != http.StatusTooManyRequests || after == "" {
		t.Fatalf("quota submit: %d retry-after=%q %s", code, after, body)
	}
	if !strings.Contains(string(body), "job quota") {
		t.Fatalf("429 body: %s", body)
	}
}

// TestSweepStoreReservesBytes proves the durable result store answers
// a repeated sweep byte-identically — across a server restart — while
// counting a hit instead of recomputing.
func TestSweepStoreReservesBytes(t *testing.T) {
	dir := t.TempDir()
	_, ts, store := newDurableServer(t, dir, nil, nil)
	var sub submitted
	if code := postJSON(t, ts.URL+"/v1/sweep", sweepReq(), &sub); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	state, first, errMsg := pollJob(t, ts.URL, sub.ID)
	if state != "succeeded" {
		t.Fatalf("job %s: %s", state, errMsg)
	}
	if st := store.Stats(); st.Entries != 1 || st.Puts != 1 {
		t.Fatalf("store after first run: %+v", st)
	}

	// Restart: a fresh server over the same store directory.
	_, ts2, store2 := newDurableServer(t, dir, nil, nil)
	var sub2 submitted
	if code := postJSON(t, ts2.URL+"/v1/sweep", sweepReq(), &sub2); code != http.StatusAccepted {
		t.Fatalf("submit 2: %d", code)
	}
	state, second, errMsg := pollJob(t, ts2.URL, sub2.ID)
	if state != "succeeded" {
		t.Fatalf("job 2 %s: %s", state, errMsg)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("restored result differs from the original bytes")
	}
	if st := store2.Stats(); st.Hits != 1 || st.Puts != 0 {
		t.Fatalf("store after restart: %+v", st)
	}
}

// restart boots a daemon over walDir in cesimd's order: replay the WAL
// while the crashed segment is still the log's last, only then open the
// new writer, build the journaled queue and server on it, and resubmit
// — so the acceptances re-journal into the new segments. It returns the
// new queue and how many jobs Resubmit accepted.
func restart(t *testing.T, walDir string) (*jobs.Queue, int, journal.ReplayStats) {
	t.Helper()
	pending, st, err := jobs.Recover(context.Background(), walDir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := journal.Open(walDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() }) // registered first: runs after the server's drain
	q := jobs.New(jobs.Config{Workers: 2, Journal: w})
	s, _, _ := newDurableServer(t, t.TempDir(), nil, q)
	return q, s.Resubmit(pending), st
}

// TestServerRecoverReenqueues is the jobs-layer kill-and-restart
// acceptance at unit scope: a journaled sweep job with no terminal
// record is re-enqueued by a fresh server under its original id, and
// its recovered result is bit-identical to a direct computation.
func TestServerRecoverReenqueues(t *testing.T) {
	walDir := t.TempDir()
	w, err := journal.Open(walDir, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	// "Crashed" daemon: the job is accepted (journaled) but its worker
	// never finishes — we close the WAL with no terminal record.
	q1 := jobs.New(jobs.Config{Workers: 1, Journal: w})
	block := make(chan struct{})
	defer close(block)
	req := sweepReq()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	id, err := q1.SubmitSpec(
		jobs.Spec{Kind: "sweep", RequestID: "r-crash", Payload: payload},
		func(ctx context.Context) (any, error) { <-block; return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	q2, n, st := restart(t, walDir)
	if n != 1 || st.Quarantined != 0 {
		t.Fatalf("recovered %d jobs (stats %+v), want 1", n, st)
	}
	snap, ok, err := q2.Wait(context.Background(), id)
	if !ok || err != nil {
		t.Fatalf("recovered job %s lost: ok=%v err=%v", id, ok, err)
	}
	if snap.State != jobs.Succeeded || snap.RequestID != "r-crash" {
		t.Fatalf("recovered job: %+v (%s)", snap.State, snap.Error)
	}

	// Bit-identity: the recovered run equals a direct computation.
	opts := core.Options{Nodes: 16, Iterations: 2, Reps: 1, Seed: 1,
		Workloads: []string{"minife"}, Scale: core.Reduced}
	fig, err := core.Figure4(opts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := fig.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	got, ok := snap.Result.(json.RawMessage)
	if !ok {
		t.Fatalf("result type %T", snap.Result)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("recovered result differs from direct computation")
	}
}

// TestRecoverFailsUnknownKind: version skew must fail the job, not
// crash the daemon or leave the job unfinished in the log.
func TestRecoverFailsUnknownKind(t *testing.T) {
	walDir := t.TempDir()
	w, err := journal.Open(walDir, journal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	q1 := jobs.New(jobs.Config{Workers: 1, Journal: w})
	block := make(chan struct{})
	defer close(block)
	id, err := q1.SubmitSpec(jobs.Spec{Kind: "no-such-kind", Retries: 2, Payload: json.RawMessage(`{}`)},
		func(ctx context.Context) (any, error) { <-block; return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	q2, n, _ := restart(t, walDir)
	if n != 1 {
		t.Fatalf("re-enqueued %d jobs of an unknown kind, want 1", n)
	}
	snap, ok, err := q2.Wait(context.Background(), id)
	if !ok || err != nil {
		t.Fatalf("recovered job %s lost: ok=%v err=%v", id, ok, err)
	}
	if snap.State != jobs.Failed || snap.Attempts != 1 || !strings.Contains(snap.Error, `no recovery for job kind "no-such-kind"`) {
		t.Fatalf("recovered job: %s after %d attempts (%s), want failed once with the reason", snap.State, snap.Attempts, snap.Error)
	}
}

// TestAdviseIngest429RetryAfter is the satellite: the advisor's
// tenant/node-cap 429 must carry Retry-After like every other
// throttling response.
func TestAdviseIngest429RetryAfter(t *testing.T) {
	adv := advise.NewService(advise.Config{Store: advise.StoreConfig{MaxNodesPerTenant: 1}})
	q := jobs.New(jobs.Config{Workers: 1})
	s, err := New(Config{Queue: q, Cache: simcache.New(0), Advisor: adv})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	batch := fmt.Sprintf("%s\n%s\n",
		`{"tenant":"t","node":"n1","ts_ns":1000,"addr":4096}`,
		`{"tenant":"t","node":"n2","ts_ns":2000,"addr":8192}`)
	resp, err := http.Post(ts.URL+"/v1/advise/ingest", "application/x-ndjson", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("advisor 429 missing Retry-After")
	}
}
