package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/advise"
	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/golden"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/simcache"
	"repro/internal/tenant"
)

// keyPaths lists every distinct key path of a JSON document with the
// type of the value there, one "path type" line each, in the order the
// document first shows it. An array's elements share the path "[]", so
// a list of any length contributes the union of its elements' keys.
func keyPaths(t *testing.T, doc []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	seen := map[string]bool{}
	var out bytes.Buffer
	emit := func(path, typ string) {
		if line := path + " " + typ + "\n"; !seen[line] {
			seen[line] = true
			out.WriteString(line)
		}
	}
	var walk func(path string)
	walk = func(path string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("key paths: %v", err)
		}
		switch tok := tok.(type) {
		case json.Delim:
			if tok == '{' {
				emit(path, "object")
				for dec.More() {
					key, err := dec.Token()
					if err != nil {
						t.Fatalf("key paths: %v", err)
					}
					walk(path + "." + key.(string))
				}
			} else {
				emit(path, "array")
				for dec.More() {
					walk(path + "[]")
				}
			}
			if _, err := dec.Token(); err != nil { // the closing delimiter
				t.Fatalf("key paths: %v", err)
			}
		case string:
			emit(path, "string")
		case float64:
			emit(path, "number")
		case bool:
			emit(path, "bool")
		case nil:
			emit(path, "null")
		}
	}
	walk("$")
	return out.Bytes()
}

// getBody fetches url and returns its body, failing on a non-200.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, body := getRaw(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}

// TestMetricsShapeGolden pins the ordered key paths and value types of
// /metrics, with every optional section present (result store, tenants,
// job WAL, advisor, an armed fault plan), and of /cluster/status for a
// coordinator holding one worker, one lease and one sweep. The script
// uses only the HTTP surface and constructors, so the same test run
// against an older tree shows whether both documents kept their shape.
func TestMetricsShapeGolden(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteHandler: {Kind: faultinject.KindDelay, Probability: 1, DelayNanos: 1},
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wal, err := journal.Open(filepath.Join(dir, "jobs-wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	store, err := simcache.OpenStore(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	q := jobs.New(jobs.Config{Workers: 2, Journal: wal})
	s, err := New(Config{
		Queue: q, Cache: simcache.New(0), Journal: wal, ResultStore: store,
		Tenants: tenant.New(tenant.Config{Defaults: tenant.Limits{MaxJobs: 8}}),
		Advisor: advise.NewService(advise.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = q.Drain(ctx)
	}()

	for _, job := range []struct {
		kind string
		req  any
	}{{"simulate", simReq()}, {"sweep", sweepReq()}} {
		code, _, body := postTenant(t, ts.URL+"/v1/"+job.kind, "acme", job.req)
		var sub submitted
		if err := json.Unmarshal(body, &sub); err != nil || code != http.StatusAccepted {
			t.Fatalf("%s: %d %s", job.kind, code, body)
		}
		if state, _, msg := pollJob(t, ts.URL, sub.ID); state != "succeeded" {
			t.Fatalf("%s job %s: %s", job.kind, state, msg)
		}
	}
	if resp, body := postNDJSON(t, ts.URL+"/v1/advise/ingest", advBatch("acme", 2, 5, 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	getBody(t, ts.URL+"/v1/advise/recommend?tenant=acme&node=n0")

	coord := cluster.NewCoordinator()
	cq := jobs.New(jobs.Config{Workers: 1})
	defer cq.Drain(context.Background())
	cs, err := New(Config{Queue: cq, Cache: simcache.New(0), Advisor: advise.NewService(advise.Config{}), Routes: coord.Routes()})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(cs)
	defer cts.Close()
	worker, _ := coord.Register("", "worker-1")
	if _, _, err := coord.CreateSweep(cluster.Spec{Figures: []string{"4"}, Workloads: []string{"minife"}, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if g, err := coord.Lease(worker); err != nil || g == nil {
		t.Fatalf("lease: %v, %v", g, err)
	}

	var doc bytes.Buffer
	for _, d := range []struct{ base, path string }{{ts.URL, "/metrics"}, {cts.URL, "/cluster/status"}} {
		fmt.Fprintf(&doc, "# %s\n", d.path)
		doc.Write(keyPaths(t, getBody(t, d.base+d.path)))
	}
	golden.Check(t, filepath.Join("testdata", "shape.golden"), doc.Bytes())
}
