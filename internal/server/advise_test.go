package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/advise"
	"repro/internal/envelope"
	"repro/internal/faultinject"
	"repro/internal/jobs"
)

var updateAdvisorGolden = flag.Bool("update-advisor-golden", false,
	"rewrite testdata/advisor_smoke_golden.json from the live response")

// newAdvisorServer mounts an advisor on a robust test server.
func newAdvisorServer(t *testing.T, qcfg jobs.Config, mod func(*Config)) (*httptest.Server, *jobs.Queue, *advise.Service) {
	t.Helper()
	adv := advise.NewService(advise.Config{})
	ts, q := newRobustServer(t, qcfg, func(c *Config) {
		c.Advisor = adv
		if mod != nil {
			mod(c)
		}
	})
	return ts, q, adv
}

func advBatch(tenant string, nodes, events int, seed int64) string {
	var b strings.Builder
	for n := 0; n < nodes; n++ {
		for i := 0; i < events; i++ {
			k := seed*1000 + int64(n*events+i)
			fmt.Fprintf(&b, `{"tenant":%q,"node":"n%d","ts_ns":%d,"addr":%d,"bank":%d}`+"\n",
				tenant, n, (k%100000+1)*60e9, (k*2654435761)%(1<<40), k%8)
		}
	}
	return b.String()
}

func postNDJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getRaw(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestAdvisorRoutesRequireMount: without Config.Advisor the endpoints
// must not exist.
func TestAdvisorRoutesRequireMount(t *testing.T) {
	ts, _, _ := newTestServer(t, jobs.Config{})
	resp, _ := postNDJSON(t, ts.URL+"/v1/advise/ingest", advBatch("acme", 1, 1, 1))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unmounted ingest: status %d, want 404", resp.StatusCode)
	}
	resp, _ = getRaw(t, ts.URL+"/v1/advise/recommend?tenant=a&node=n")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unmounted recommend: status %d, want 404", resp.StatusCode)
	}
}

// TestAdvisorEndToEnd: ingest through the real middleware stack, then
// recommend, then check the advisor section of /metrics.
func TestAdvisorEndToEnd(t *testing.T) {
	ts, _, _ := newAdvisorServer(t, jobs.Config{}, nil)

	resp, body := postNDJSON(t, ts.URL+"/v1/advise/ingest", advBatch("acme", 2, 20, 7))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get(envelope.RequestIDHeader) == "" {
		t.Fatal("ingest response missing request id: not going through the middleware")
	}
	var res advise.IngestResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 40 || res.Nodes != 2 {
		t.Fatalf("ingest result: %+v", res)
	}

	resp, body = getRaw(t, ts.URL+"/v1/advise/recommend?tenant=acme&node=n0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend: %d %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get(advise.CacheHeader); h != "miss" {
		t.Fatalf("%s = %q, want miss", advise.CacheHeader, h)
	}
	var rec advise.Recommendation
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Estimate == nil || rec.Estimate.Tenant != "acme" || rec.Estimate.Node != "n0" {
		t.Fatalf("estimate: %+v", rec.Estimate)
	}
	if rec.RecommendedMode == "" {
		t.Fatalf("no recommended mode: %+v", rec)
	}

	var m Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.Advisor == nil {
		t.Fatal("metrics missing advisor section")
	}
	if m.Advisor.Store.Events != 40 || m.Advisor.Store.Nodes != 2 || m.Advisor.RecommendMisses != 1 {
		t.Fatalf("advisor metrics: %+v", m.Advisor)
	}
}

// TestAdviseIngestShed: advisor ingest rides the same admission control
// as job submissions — queue past the watermark means 503 + Retry-After.
func TestAdviseIngestShed(t *testing.T) {
	ts, q, _ := newAdvisorServer(t, jobs.Config{Workers: 1, Capacity: 8}, func(c *Config) {
		c.ShedWatermark = 1
	})

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

	resp, body := postNDJSON(t, ts.URL+"/v1/advise/ingest", advBatch("acme", 1, 5, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed ingest lacks Retry-After")
	}
	// Recommend is a read: it must keep answering under load shed.
	resp, _ = getRaw(t, ts.URL+"/v1/advise/recommend?tenant=acme&node=n0")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("recommend under shed: status %d, want 404 (no data, but served)", resp.StatusCode)
	}
}

// TestAdviseIngestChaos is the PR's chaos acceptance run: with the
// advise.ingest fault site firing at p=0.2, a storm of batches must
// leave no partial state — the store must equal a reference store that
// applied exactly the accepted batches — and the job queue must still
// drain cleanly afterwards.
func TestAdviseIngestChaos(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	ts, q, _ := newAdvisorServer(t, jobs.Config{Workers: 2, Capacity: 32}, nil)

	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteAdviseIngest: {Kind: faultinject.KindError, Probability: 0.2, Seed: 99},
	}); err != nil {
		t.Fatal(err)
	}

	// Collect the batches the chaos run accepted; a reference advisor
	// replays exactly those once the plan is disarmed.
	const batches = 100
	var acceptedBatches []string
	failed := 0
	for b := 0; b < batches; b++ {
		batch := advBatch("acme", 3, 4, int64(b))
		resp, body := postNDJSON(t, ts.URL+"/v1/advise/ingest", batch)
		switch resp.StatusCode {
		case http.StatusOK:
			acceptedBatches = append(acceptedBatches, batch)
		case http.StatusInternalServerError:
			failed++
			if !strings.Contains(string(body), "faultinject") {
				t.Fatalf("batch %d: unexpected 500: %s", b, body)
			}
		default:
			t.Fatalf("batch %d: status %d: %s", b, resp.StatusCode, body)
		}
	}
	accepted := len(acceptedBatches)
	if accepted == 0 || failed == 0 {
		t.Fatalf("chaos run needs both outcomes: accepted=%d failed=%d", accepted, failed)
	}

	// No state corruption: metrics agree with an exact replay of the
	// accepted batches, and recommend answers match byte-for-byte.
	var m Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.Advisor == nil {
		t.Fatal("metrics missing advisor section")
	}
	if want := uint64(accepted * 12); m.Advisor.Store.Events != want {
		t.Fatalf("store events = %d, want %d (12 per accepted batch): partial batch applied",
			m.Advisor.Store.Events, want)
	}
	if m.Advisor.Store.Batches != uint64(accepted) {
		t.Fatalf("store batches = %d, want %d", m.Advisor.Store.Batches, accepted)
	}
	if m.Advisor.IngestRejects != uint64(failed) {
		t.Fatalf("ingest rejects = %d, want %d", m.Advisor.IngestRejects, failed)
	}
	if m.Faults == nil {
		t.Fatal("armed faults missing from metrics")
	}
	faultinject.Disarm()

	ref := advise.NewService(advise.Config{})
	for _, batch := range acceptedBatches {
		if err := refIngest(ref, batch); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []string{"n0", "n1", "n2"} {
		_, got := getRaw(t, ts.URL+"/v1/advise/recommend?tenant=acme&node="+n)
		req := httptest.NewRequest("GET", "/v1/advise/recommend?tenant=acme&node="+n, nil)
		w := httptest.NewRecorder()
		ref.HandleRecommend(w, req)
		if !bytes.Equal(got, w.Body.Bytes()) {
			t.Fatalf("%s: chaos-surviving state diverged from exact replay:\n got: %s\nwant: %s", n, got, w.Body)
		}
	}

	// The job queue is unaffected by advisor chaos: submit and finish a
	// real job, then drain.
	var sub submitted
	if code := postJSON(t, ts.URL+"/v1/simulate", simReq(), &sub); code != http.StatusAccepted {
		t.Fatalf("post-chaos submit status %d", code)
	}
	if state, _, errMsg := pollJob(t, ts.URL, sub.ID); state != "succeeded" {
		t.Fatalf("post-chaos job: %s (%s)", state, errMsg)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("queue failed to drain after chaos: %v", err)
	}
}

// refIngest applies one NDJSON batch to a bare advisor service,
// failing on any non-200.
func refIngest(s *advise.Service, batch string) error {
	req := httptest.NewRequest("POST", "/v1/advise/ingest", strings.NewReader(batch))
	w := httptest.NewRecorder()
	s.HandleIngest(w, req)
	if w.Code != http.StatusOK {
		return fmt.Errorf("reference ingest: %d %s", w.Code, w.Body)
	}
	return nil
}

// TestAdvisorSmokeGolden is the advisor-smoke target (Makefile, CI):
// boot the daemon stack, ingest the canned NDJSON stream, and require
// the recommendation to match the committed golden byte-for-byte.
// Regenerate with: go test -run TestAdvisorSmokeGolden ./internal/server/ -update-advisor-golden
func TestAdvisorSmokeGolden(t *testing.T) {
	ts, _, _ := newAdvisorServer(t, jobs.Config{}, nil)

	stream, err := os.ReadFile(filepath.Join("testdata", "advisor_smoke.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postNDJSON(t, ts.URL+"/v1/advise/ingest", string(stream))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("smoke ingest: %d %s", resp.StatusCode, body)
	}

	const query = "tenant=smoke&node=node-07&workload=lulesh&nodes=16384&budget=10&gib=700"
	resp, got := getRaw(t, ts.URL+"/v1/advise/recommend?"+query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("smoke recommend: %d %s", resp.StatusCode, got)
	}

	goldenPath := filepath.Join("testdata", "advisor_smoke_golden.json")
	if *updateAdvisorGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recommendation drifted from golden (rerun with -update-advisor-golden if intended):\n got: %s\nwant: %s", got, want)
	}
}
