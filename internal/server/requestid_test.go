package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/envelope"
	"repro/internal/jobs"
	"repro/internal/simcache"
)

func TestRequestIDGenerated(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rid := resp.Header.Get(envelope.RequestIDHeader)
	if rid == "" || !strings.HasPrefix(rid, "r-") {
		t.Fatalf("generated request id %q, want r-<hex>", rid)
	}
}

func TestRequestIDPropagated(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{})
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(envelope.RequestIDHeader, "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(envelope.RequestIDHeader); got != "trace-me-42" {
		t.Fatalf("echoed request id %q, want trace-me-42", got)
	}
}

func TestRequestIDOverlongReplaced(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{})
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(envelope.RequestIDHeader, strings.Repeat("x", maxRequestIDLen+1))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(envelope.RequestIDHeader); !strings.HasPrefix(got, "r-") {
		t.Fatalf("overlong inbound id kept: %q", got)
	}
}

func TestRequestIDInErrorBody(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate",
		bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(envelope.RequestIDHeader, "err-echo-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var body envelope.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.RequestID != "err-echo-7" {
		t.Fatalf("error body request_id %q, want err-echo-7", body.RequestID)
	}
}

func TestRequestIDReachesJobSnapshot(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{Workers: 2})
	body, err := json.Marshal(SimulateRequest{
		Workload: "minife", Nodes: 8, Iters: 2, MTBCENanos: int64(time.Second), PerEventNanos: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(envelope.RequestIDHeader, "job-rid-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub submitted
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var snap jobs.Snapshot
		if code := getJSON(t, ts.URL+"/v1/jobs/"+sub.ID, &snap); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if snap.RequestID != "job-rid-1" {
			t.Fatalf("job snapshot request_id %q, want job-rid-1", snap.RequestID)
		}
		if snap.State.Terminal() {
			if snap.State != jobs.Succeeded {
				t.Fatalf("job finished %s: %s", snap.State, snap.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestExtraRoutesThroughMiddleware proves Config.Routes endpoints get
// the same stamping and accounting as built-ins: the request id is in
// scope inside the handler and the route shows up in /metrics.
func TestExtraRoutesThroughMiddleware(t *testing.T) {
	q := jobs.New(jobs.Config{Workers: 1})
	var seen string
	s, err := New(Config{
		Queue: q, Cache: simcache.New(0),
		Routes: map[string]http.HandlerFunc{
			"GET /cluster/ping": func(w http.ResponseWriter, r *http.Request) {
				seen = envelope.RequestIDFrom(r.Context())
				envelope.Write(w, http.StatusOK, map[string]any{"pong": true})
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = q.Drain(ctx)
	}()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/cluster/ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(envelope.RequestIDHeader, "extra-route-rid")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if seen != "extra-route-rid" {
		t.Fatalf("handler saw request id %q, want extra-route-rid", seen)
	}
	var m Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.Requests["GET /cluster/ping"] != 1 {
		t.Fatalf("extra route not accounted: %v", m.Requests)
	}
}
