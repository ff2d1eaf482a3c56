package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/simcache"
)

// newRobustServer is newTestServer with a configurable server Config
// (shed watermark, retry budget).
func newRobustServer(t *testing.T, qcfg jobs.Config, mod func(*Config)) (*httptest.Server, *jobs.Queue) {
	t.Helper()
	if qcfg.Workers == 0 {
		qcfg.Workers = 2
	}
	q := jobs.New(qcfg)
	cfg := Config{Queue: q, Cache: simcache.New(0), SimWorkers: 2}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
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
	return ts, q
}

// TestCacheFailureDegradesToBypass arms persistent simcache.fill
// errors: every simulate job must degrade to a direct baseline build
// (not fail), each counted in cache_bypasses, and the degraded result
// must be bit-identical to the one a healthy cache serves.
func TestCacheFailureDegradesToBypass(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	ts, _ := newRobustServer(t, jobs.Config{}, nil)

	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteCacheFill: {Kind: faultinject.KindError, Probability: 1},
	}); err != nil {
		t.Fatal(err)
	}

	var degraded SimulateResult
	for i := 0; i < 3; i++ {
		var sub submitted
		if code := postJSON(t, ts.URL+"/v1/simulate", simReq(), &sub); code != http.StatusAccepted {
			t.Fatalf("job %d: submit status %d", i, code)
		}
		state, result, errMsg := pollJob(t, ts.URL, sub.ID)
		if state != "succeeded" {
			t.Fatalf("job %d: %s (%s) — cache failure was not degraded", i, state, errMsg)
		}
		if err := json.Unmarshal(result, &degraded); err != nil {
			t.Fatal(err)
		}
		if !degraded.CacheBypassed || degraded.CacheHit {
			t.Fatalf("job %d: hit=%v bypassed=%v, want pure bypass", i, degraded.CacheHit, degraded.CacheBypassed)
		}
	}

	var m Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.CacheBypasses != 3 {
		t.Fatalf("cache_bypasses = %d, want 3", m.CacheBypasses)
	}
	if m.Faults == nil || len(m.Faults.Sites) == 0 {
		t.Fatalf("armed faults missing from metrics: %+v", m.Faults)
	}

	// Same request with the cache healthy: bit-identical result.
	faultinject.Disarm()
	var sub submitted
	if code := postJSON(t, ts.URL+"/v1/simulate", simReq(), &sub); code != http.StatusAccepted {
		t.Fatalf("healthy submit status %d", code)
	}
	state, result, errMsg := pollJob(t, ts.URL, sub.ID)
	if state != "succeeded" {
		t.Fatalf("healthy job: %s (%s)", state, errMsg)
	}
	var healthy SimulateResult
	if err := json.Unmarshal(result, &healthy); err != nil {
		t.Fatal(err)
	}
	// The cache is tried again at once: the healthy run is a miss that
	// fills it, and no further bypass is counted.
	if healthy.CacheBypassed || healthy.CacheHit {
		t.Fatalf("healthy job: hit=%v bypassed=%v, want a cache miss", healthy.CacheHit, healthy.CacheBypassed)
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK || m.CacheBypasses != 3 {
		t.Fatalf("after the healthy job: status %d, cache_bypasses = %d, want 3", code, m.CacheBypasses)
	}
	if healthy.BaselineMakespanNanos != degraded.BaselineMakespanNanos {
		t.Fatalf("baselines differ: %d vs %d", healthy.BaselineMakespanNanos, degraded.BaselineMakespanNanos)
	}
	if (healthy.Slowdown == nil) != (degraded.Slowdown == nil) {
		t.Fatal("slowdown presence differs between degraded and healthy runs")
	}
	if healthy.Slowdown != nil && *healthy.Slowdown != *degraded.Slowdown {
		t.Fatalf("slowdown differs: %+v vs %+v", healthy.Slowdown, degraded.Slowdown)
	}
}

// TestShedWatermark fills the queue past the watermark and checks new
// submissions get 503 + Retry-After instead of queueing.
func TestShedWatermark(t *testing.T) {
	ts, q := newRobustServer(t, jobs.Config{Workers: 1, Capacity: 8}, func(c *Config) {
		c.ShedWatermark = 1
	})

	// Occupy the single worker, then park one queued job so the depth
	// sits at the watermark.
	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
	if _, err := q.Submit("block", block); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("block", block); err != nil {
		t.Fatal(err)
	}
	waitFor := time.Now().Add(5 * time.Second)
	for q.Depth() < 1 {
		if time.Now().After(waitFor) {
			t.Fatal("queue depth never reached the watermark")
		}
		time.Sleep(time.Millisecond)
	}

	body, _ := json.Marshal(simReq())
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response lacks Retry-After")
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("shed body: %q err=%v", eb.Error, err)
	}

	var m Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.ShedRequests == 0 {
		t.Fatal("shed_requests stayed zero")
	}
}

// TestHandlerPanicRecovered arms a one-shot panic at server.handler and
// checks it surfaces as a clean 500 while the daemon keeps serving.
func TestHandlerPanicRecovered(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	ts, _ := newRobustServer(t, jobs.Config{}, nil)
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteHandler: {Kind: faultinject.KindPanic, Probability: 1, Count: 1},
	}); err != nil {
		t.Fatal(err)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &eb); code != http.StatusInternalServerError || eb.Error == "" {
		t.Fatalf("panicking handler: status %d body %q", code, eb.Error)
	}
	// The next request (budget exhausted) is served normally.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("daemon did not survive the panic: status %d", code)
	}
	var m Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.HandlerPanics != 1 {
		t.Fatalf("handler_panics = %d, want 1", m.HandlerPanics)
	}
}

// TestDecodeFaultRejectsRequest arms server.decode and checks the
// injected failure reads as a normal 400, not a crash.
func TestDecodeFaultRejectsRequest(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	ts, _ := newRobustServer(t, jobs.Config{}, nil)
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteDecode: {Kind: faultinject.KindError, Probability: 1, Count: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/v1/simulate", simReq(), nil); code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/simulate", simReq(), nil); code != http.StatusAccepted {
		t.Fatalf("post-fault submit status %d, want 202", code)
	}
}

// TestWorkerPanicRetriedByJobSpec arms jobs.worker panics within the
// server's retry budget and checks the job still succeeds.
func TestWorkerPanicRetriedByJobSpec(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	ts, _ := newRobustServer(t, jobs.Config{}, func(c *Config) {
		c.JobRetries = 3
	})
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteJobWorker: {Kind: faultinject.KindPanic, Probability: 1, Count: 2},
	}); err != nil {
		t.Fatal(err)
	}
	var sub submitted
	if code := postJSON(t, ts.URL+"/v1/simulate", simReq(), &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	state, _, errMsg := pollJob(t, ts.URL, sub.ID)
	if state != "succeeded" {
		t.Fatalf("job %s (%s), want succeeded via retries", state, errMsg)
	}
	var m Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.Jobs.PanicsRecovered != 2 || m.Jobs.Retries != 2 {
		t.Fatalf("panics=%d retries=%d, want 2/2", m.Jobs.PanicsRecovered, m.Jobs.Retries)
	}
}
