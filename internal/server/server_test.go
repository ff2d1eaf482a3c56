package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/noise"
	"repro/internal/simcache"
)

// newTestServer builds a server on a small queue, returning the
// httptest wrapper and the queue for draining.
func newTestServer(t *testing.T, qcfg jobs.Config) (*httptest.Server, *jobs.Queue, *simcache.Cache) {
	t.Helper()
	if qcfg.Workers == 0 {
		qcfg.Workers = 2
	}
	q := jobs.New(qcfg)
	c := simcache.New(0)
	s, err := New(Config{Queue: q, Cache: c})
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
	return ts, q, c
}

// postJSON posts v and decodes the response into out, returning the
// status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// pollJob polls until the job is terminal, returning its snapshot with
// the result left as raw JSON.
func pollJob(t *testing.T, base, id string) (state string, result json.RawMessage, errMsg string) {
	t.Helper()
	type snap struct {
		State  string          `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var s snap
		if code := getJSON(t, base+"/v1/jobs/"+id, &s); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		switch s.State {
		case "succeeded", "failed", "canceled":
			return s.State, s.Result, s.Error
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, s.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func simReq() SimulateRequest {
	return SimulateRequest{
		Workload: "minife", Nodes: 16, Iters: 2,
		MTBCENanos:    20 * 1000 * 1000, // 20 ms
		PerEventNanos: 500 * 1000,       // 500 us
		Seed:          1, Reps: 3,
	}
}

func TestHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{})
	var body map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["status"] != "ok" {
		t.Fatalf("body %v", body)
	}
}

func TestCatalogEndpoints(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{})
	var sys struct {
		Systems      []map[string]any `json:"systems"`
		LoggingModes []map[string]any `json:"logging_modes"`
	}
	if code := getJSON(t, ts.URL+"/v1/systems", &sys); code != http.StatusOK {
		t.Fatalf("systems status %d", code)
	}
	if len(sys.Systems) != 10 || len(sys.LoggingModes) != 3 {
		t.Fatalf("catalog sizes: %d systems, %d modes", len(sys.Systems), len(sys.LoggingModes))
	}
	var wl struct {
		Workloads []map[string]any `json:"workloads"`
	}
	if code := getJSON(t, ts.URL+"/v1/workloads", &wl); code != http.StatusOK {
		t.Fatalf("workloads status %d", code)
	}
	if len(wl.Workloads) != 9 {
		t.Fatalf("%d workloads, want the paper's 9", len(wl.Workloads))
	}
}

// TestSimulateEndToEnd is the acceptance path: submit over HTTP, poll
// to completion, and check the answer matches the same question asked
// directly through core (same seeds, so bit-identical).
func TestSimulateEndToEnd(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{})
	req := simReq()

	var sub submitted
	if code := postJSON(t, ts.URL+"/v1/simulate", req, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	state, raw, errMsg := pollJob(t, ts.URL, sub.ID)
	if state != "succeeded" {
		t.Fatalf("job %s: %s (%s)", sub.ID, state, errMsg)
	}
	var res SimulateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}

	exp, err := core.NewExperiment(core.ExperimentConfig{
		Workload: req.Workload, Nodes: req.Nodes, Iterations: req.Iters, TraceSeed: req.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.RunRepeated(core.Scenario{
		MTBCE: req.MTBCENanos, PerEvent: noise.Fixed(req.PerEventNanos),
		Target: noise.AllNodes, Seed: req.Seed + 1,
	}, req.Reps)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := want.Sample.Summarize()
	if res.Slowdown == nil {
		t.Fatalf("no slowdown in result: %+v", res)
	}
	if res.Slowdown.MeanPct != wantSum.Mean || res.Slowdown.N != wantSum.N {
		t.Fatalf("served slowdown %+v != direct %+v", res.Slowdown, wantSum)
	}
	if res.BaselineMakespanNanos != exp.Baseline().Makespan {
		t.Fatalf("baseline makespan %d != %d", res.BaselineMakespanNanos, exp.Baseline().Makespan)
	}
	if res.Ranks != exp.Ranks() || res.CacheHit {
		t.Fatalf("metadata off: %+v", res)
	}
}

// TestRepeatedRequestsHitCache submits the same question twice and
// checks the second is served from the baseline cache, with the hit
// visible on /metrics.
func TestRepeatedRequestsHitCache(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{})
	for i := 0; i < 2; i++ {
		var sub submitted
		if code := postJSON(t, ts.URL+"/v1/simulate", simReq(), &sub); code != http.StatusAccepted {
			t.Fatalf("submit %d status %d", i, code)
		}
		state, raw, errMsg := pollJob(t, ts.URL, sub.ID)
		if state != "succeeded" {
			t.Fatalf("job %d: %s (%s)", i, state, errMsg)
		}
		var res SimulateResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if wantHit := i > 0; res.CacheHit != wantHit {
			t.Fatalf("request %d cache_hit=%v", i, res.CacheHit)
		}
	}
	var m Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.Cache.Hits+m.Cache.Coalesced == 0 || m.Cache.HitRatio <= 0 {
		t.Fatalf("cache hits invisible on /metrics: %+v", m.Cache)
	}
	if m.Jobs.Succeeded != 2 {
		t.Fatalf("job counters: %+v", m.Jobs)
	}
	if m.Latency[StageBaseline].Count != 2 || m.Latency[StageScenarios].Count != 2 {
		t.Fatalf("stage histograms missing: %+v", m.Latency)
	}
	if m.Requests["POST /v1/simulate"] != 2 {
		t.Fatalf("request counters: %+v", m.Requests)
	}
}

// TestConcurrentSubmissions exercises the worker pool and cache
// coalescing under the race detector: many identical submissions in
// flight at once must produce identical results and exactly one
// baseline build.
func TestConcurrentSubmissions(t *testing.T) {
	ts, _, cache := newTestServer(t, jobs.Config{Workers: 4, Capacity: 64})
	const n = 12
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sub submitted
			if code := postJSON(t, ts.URL+"/v1/simulate", simReq(), &sub); code != http.StatusAccepted {
				t.Errorf("submit %d status %d", i, code)
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()
	var means []float64
	for i, id := range ids {
		if id == "" {
			t.Fatalf("submission %d failed", i)
		}
		state, raw, errMsg := pollJob(t, ts.URL, id)
		if state != "succeeded" {
			t.Fatalf("job %s: %s (%s)", id, state, errMsg)
		}
		var res SimulateResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		means = append(means, res.Slowdown.MeanPct)
	}
	for i := 1; i < len(means); i++ {
		if means[i] != means[0] {
			t.Fatalf("identical requests diverged: %v", means)
		}
	}
	if s := cache.Stats(); s.Misses != 1 {
		t.Fatalf("baseline built %d times for one config: %+v", s.Misses, s)
	}
}

func TestSweepEndToEnd(t *testing.T) {
	ts, q, cache := newTestServer(t, jobs.Config{})
	req := SweepRequest{Figure: "4", Nodes: 16, Iterations: 2, Reps: 1, Seed: 1, Workloads: []string{"minife"}}
	var sub submitted
	if code := postJSON(t, ts.URL+"/v1/sweep", req, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	state, raw, errMsg := pollJob(t, ts.URL, sub.ID)
	if state != "succeeded" {
		t.Fatalf("sweep: %s (%s)", state, errMsg)
	}
	fig, err := core.ReadFigureJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("sweep result not a figure: %v", err)
	}
	if fig.ID != "fig4" || len(fig.Rows) == 0 {
		t.Fatalf("figure %q with %d rows", fig.ID, len(fig.Rows))
	}
	for _, row := range fig.Rows {
		if row.Workload != "minife" {
			t.Fatalf("workload filter ignored: %+v", row)
		}
	}

	// The job resolved its baseline through the shared cache, and the
	// figure is the one a direct RunFigure computes, byte for byte.
	if st := cache.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("sweep left cache stats %+v, want its one baseline built through the cache", st)
	}
	direct, err := core.RunFigure(context.Background(), req.Figure, req)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := direct.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	snap, ok := q.Get(sub.ID)
	if got, isRaw := snap.Result.(json.RawMessage); !ok || !isRaw || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("sweep job result differs from a direct RunFigure:\n%s\nvs\n%s", snap.Result, want.Bytes())
	}
	// A simulate job at the sweep's (workload, nodes, iters, seed) point
	// finds that baseline resident.
	if code := postJSON(t, ts.URL+"/v1/simulate", simReq(), &sub); code != http.StatusAccepted {
		t.Fatalf("simulate submit status %d", code)
	}
	if state, raw, errMsg = pollJob(t, ts.URL, sub.ID); state != "succeeded" {
		t.Fatalf("simulate: %s (%s)", state, errMsg)
	}
	var res SimulateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("simulate after a sweep at the same point rebuilt the baseline")
	}
}

// TestCancelRunningSweep: DELETE on a sweep whose every repetition is
// stalled for a minute reaches canceled in well under that — the job's
// context is observed inside the figure, not only between figures — and
// so does a sweep that outlives the queue's job deadline.
func TestCancelRunningSweep(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	for _, tc := range []struct {
		name    string
		timeout time.Duration // the queue's job deadline; zero cancels over HTTP instead
	}{{"delete", 0}, {"deadline", 200 * time.Millisecond}} {
		name, timeout := tc.name, tc.timeout
		if err := faultinject.Arm(faultinject.Plan{
			faultinject.SiteRepetition: {Kind: faultinject.KindDelay, Probability: 1, DelayNanos: int64(time.Minute)},
		}); err != nil {
			t.Fatal(err)
		}
		ts, _, _ := newTestServer(t, jobs.Config{Timeout: timeout})
		var sub submitted
		req := SweepRequest{Figure: "4", Nodes: 16, Iterations: 2, Reps: 2, Seed: 1, Workloads: []string{"minife"}}
		if code := postJSON(t, ts.URL+"/v1/sweep", req, &sub); code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", name, code)
		}
		for faultinject.Snapshot().Sites[0].Fired == 0 {
			time.Sleep(time.Millisecond)
		}
		start := time.Now()
		if timeout == 0 {
			del, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(del)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cancel of a running sweep: status %d", resp.StatusCode)
			}
		}
		state, raw, errMsg := pollJob(t, ts.URL, sub.ID)
		if state != "canceled" || len(raw) != 0 && string(raw) != "null" {
			t.Fatalf("%s: sweep ended %s (%s) with result %s, want canceled and no result", name, state, errMsg, raw)
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Fatalf("%s: a sweep stalled for a minute per repetition took %s to stop", name, took)
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{})
	base := simReq()
	cases := []struct {
		name string
		mod  func(*SimulateRequest)
	}{
		{"missing workload", func(r *SimulateRequest) { r.Workload = "" }},
		{"unknown workload", func(r *SimulateRequest) { r.Workload = "linpack" }},
		{"one node", func(r *SimulateRequest) { r.Nodes = 1 }},
		{"huge nodes", func(r *SimulateRequest) { r.Nodes = 1 << 20 }},
		{"no rate", func(r *SimulateRequest) { r.MTBCENanos = 0 }},
		{"both rates", func(r *SimulateRequest) { r.System = "cielo" }},
		{"unknown system", func(r *SimulateRequest) { r.MTBCENanos = 0; r.System = "nonesuch" }},
		{"no cost", func(r *SimulateRequest) { r.PerEventNanos = 0 }},
		{"both costs", func(r *SimulateRequest) { r.Mode = "firmware-emca" }},
		{"unknown mode", func(r *SimulateRequest) { r.PerEventNanos = 0; r.Mode = "nonesuch" }},
		{"bad target", func(r *SimulateRequest) { tgt := int32(99); r.Target = &tgt }},
		{"target past the last rank of a cube", func(r *SimulateRequest) {
			tgt := int32(127)
			r.Workload, r.Nodes, r.Target = "lulesh", 128, &tgt
		}},
		{"negative reps", func(r *SimulateRequest) { r.Reps = -1 }},
	}
	for _, tc := range cases {
		req := base
		tc.mod(&req)
		var e envelope.ErrorBody
		if code := postJSON(t, ts.URL+"/v1/simulate", req, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (error %q)", tc.name, code, e.Error)
		} else if e.Error == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
	}
	// Unknown fields are rejected too.
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
		bytes.NewReader([]byte(`{"workload":"minife","nodez":16}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", resp.StatusCode)
	}
}

// TestSweepValidation: a bad sweep body is a 400 at the door, never a
// 202 whose job fails later. (The full table of bad specs, driven
// through flags and both HTTP doors, is in internal/cluster.)
func TestSweepValidation(t *testing.T) {
	ts, q, _ := newTestServer(t, jobs.Config{})
	for name, body := range map[string]string{
		"no figure":        `{"nodes":16}`,
		"unknown figure":   `{"figure":"12"}`,
		"unknown scale":    `{"figure":"4","scale":"huge"}`,
		"unknown workload": `{"figure":"4","workloads":["nonesuch"]}`,
		"bad nodes":        `{"figure":"4","nodes":1}`,
		"negative iters":   `{"figure":"4","iters":-3}`,
		"negative reps":    `{"figure":"4","reps":-1}`,
		"figure list too":  `{"figure":"4","figures":["5"]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d", name, resp.StatusCode)
		}
	}
	if st := q.Stats(); st.Submitted != 0 {
		t.Fatalf("%d rejected sweeps reached the queue", st.Submitted)
	}
}

// TestOversizedSubmissionIs413: a simulate or sweep body over the
// 1 MiB limit is refused 413 with the request id, and nothing reaches
// the queue.
func TestOversizedSubmissionIs413(t *testing.T) {
	ts, q, _ := newTestServer(t, jobs.Config{})
	body := `{"workload":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, route := range []string{"/v1/simulate", "/v1/sweep"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+route, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(envelope.RequestIDHeader, "big-body-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e envelope.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusRequestEntityTooLarge ||
			e.Error != "bad request body: http: request body too large" || e.RequestID != "big-body-1" {
			t.Errorf("%s: status %d, body %+v (%v), want 413 carrying the request id", route, resp.StatusCode, e, err)
		}
	}
	if st := q.Stats(); st.Submitted != 0 {
		t.Fatalf("%d oversized submissions reached the queue", st.Submitted)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	ts, q, _ := newTestServer(t, jobs.Config{Workers: 1, Capacity: 1})
	// Deterministically fill the pool: one blocking job occupies the
	// only worker, a second fills the capacity-1 queue.
	block := make(chan struct{})
	defer close(block)
	if _, err := q.SubmitSpec(jobs.Spec{Kind: "block"}, func(context.Context) (any, error) {
		<-block
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for q.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := q.SubmitSpec(jobs.Spec{Kind: "fill"}, func(context.Context) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	var e envelope.ErrorBody
	if code := postJSON(t, ts.URL+"/v1/simulate", simReq(), &e); code != http.StatusTooManyRequests {
		t.Fatalf("status %d (%q), want 429", code, e.Error)
	}
}

func TestJobNotFoundAndCancel(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{})
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job status %d", code)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job status %d", resp.StatusCode)
	}

	var sub submitted
	if code := postJSON(t, ts.URL+"/v1/simulate", simReq(), &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	state, _, _ := pollJob(t, ts.URL, sub.ID)
	if state != "succeeded" {
		t.Fatalf("job %s", state)
	}
	req, err = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of finished job: status %d", resp.StatusCode)
	}
}

func TestSaturatedScenarioServed(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{})
	req := simReq()
	req.MTBCENanos = 1000 * 1000          // 1 ms between CEs
	req.PerEventNanos = 133 * 1000 * 1000 // 133 ms each: load >> 1
	var sub submitted
	if code := postJSON(t, ts.URL+"/v1/simulate", req, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	state, raw, errMsg := pollJob(t, ts.URL, sub.ID)
	if state != "succeeded" {
		t.Fatalf("job: %s (%s)", state, errMsg)
	}
	var res SimulateResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Saturated || res.Slowdown != nil {
		t.Fatalf("saturation mis-served: %+v", res)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{})
	resp, err := http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on simulate: %d", resp.StatusCode)
	}
}
