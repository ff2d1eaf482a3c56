package envelope_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/advise"
	"repro/internal/cluster"
	"repro/internal/envelope"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/simcache"
)

// TestOneEnvelopeOnEveryRouteFamily drives one error from each HTTP
// surface through one daemon — a /v1 job route, the advisor and the
// cluster protocol — and requires the same envelope from all three.
func TestOneEnvelopeOnEveryRouteFamily(t *testing.T) {
	q := jobs.New(jobs.Config{Workers: 1})
	s, err := server.New(server.Config{
		Queue: q, Cache: simcache.New(0),
		Advisor: advise.NewService(advise.Config{}),
		Routes:  cluster.NewCoordinator(cluster.Config{}).Routes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = q.Drain(ctx)
	})

	cases := []struct {
		method, path, body string
		status             int
		code               string
		msg                string
	}{
		{"GET", "/v1/jobs/nope", "", http.StatusNotFound, "", `unknown job "nope"`},
		{"GET", "/v1/advise/recommend?tenant=a&node=n&bogus=1", "", http.StatusBadRequest, "",
			"advise: unknown query parameters [bogus]"},
		{"POST", "/cluster/lease", `{"worker_id":"w","epoch":7}`, http.StatusConflict, "epoch_mismatch",
			"cluster: epoch mismatch: worker epoch 7, coordinator epoch 1"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		rid := resp.Header.Get(envelope.RequestIDHeader)
		if resp.StatusCode != tc.status || resp.Header.Get("Content-Type") != "application/json" || rid == "" {
			t.Errorf("%s: status %d, Content-Type %q, request id %q", tc.path, resp.StatusCode, resp.Header.Get("Content-Type"), rid)
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var body envelope.ErrorBody
		if err := dec.Decode(&body); err != nil {
			t.Errorf("%s: body %s does not decode into the error body: %v", tc.path, raw, err)
			continue
		}
		want := envelope.ErrorBody{Error: tc.msg, Code: tc.code, RequestID: rid}
		if body != want {
			t.Errorf("%s: body %+v, want %+v", tc.path, body, want)
		}
		// Two-space indent, and a code key only where one is set.
		canonical, _ := json.MarshalIndent(want, "", "  ")
		if string(raw) != string(canonical)+"\n" {
			t.Errorf("%s: body bytes\n%s\nwant\n%s", tc.path, raw, canonical)
		}
	}

	// The cluster client still maps the code back onto its sentinel.
	if _, err := (&cluster.Client{Base: ts.URL}).Wait(context.Background(), "nope"); !errors.Is(err, cluster.ErrUnknownSweep) {
		t.Fatalf("client error %v, want ErrUnknownSweep", err)
	}
}
