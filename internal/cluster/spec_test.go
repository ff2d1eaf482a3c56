package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/advise"
	"repro/internal/envelope"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/simcache"
)

// recorder is a journal that keeps what it was handed.
type recorder struct{ recs [][]byte }

func (r *recorder) Append(_ context.Context, b []byte) error {
	r.recs = append(r.recs, append([]byte(nil), b...))
	return nil
}

// TestRepeatedCellRejected: a figure or workload listed twice used to
// plan two shards under one key. Every report landed on the second (the
// one byKey kept), the first was re-leased after each expiry, and the
// sweep sat at done=1/2 recomputing the cell once per lease TTL. The
// shared Validate refuses the spec before anything is planned.
func TestRepeatedCellRejected(t *testing.T) {
	for name, spec := range map[string]Spec{
		"figure":   {Figures: []string{"4", "4"}, Workloads: []string{"minife"}},
		"workload": {Figures: []string{"4"}, Workloads: []string{"minife", "minife"}},
	} {
		journal := &recorder{}
		c := newCoordinator(newFakeClock().Now)
		c.wal = journal
		id, shards, err := c.CreateSweep(spec)
		if err == nil {
			t.Errorf("repeated %s: accepted as sweep %s with %d shards for one cell", name, id, shards)
		}
		if st := c.StatusSnapshot(); len(st.Sweeps) != 0 || len(journal.recs) != 0 {
			t.Errorf("repeated %s: rejected spec left %d sweeps, %d journal records", name, len(st.Sweeps), len(journal.recs))
		}
	}
}

// badSpec is one sweep spec no door may admit. fields are the JSON
// members besides the figure selection; flags spell the same thing for
// reproduce, nil when no flag can (the command line has no span or
// budget flags and no upper limits).
type badSpec struct {
	name   string
	fields string
	flags  []string
}

var badSpecs = []badSpec{
	{"negative reps", `"reps":-1`, []string{"-reps", "-1"}},
	{"negative iters", `"iters":-3`, []string{"-iters", "-3"}},
	{"one node", `"nodes":1`, []string{"-nodes", "1"}},
	{"2^40 nodes", `"nodes":1099511627776`, nil},
	{"reps over the limit", `"reps":65`, nil},
	{"iters over the limit", `"iters":4097`, nil},
	{"unbounded ops budget", `"ops_budget":1099511627776`, nil},
	{"negative ops budget", `"ops_budget":-1`, nil},
	{"unbounded span", `"span_ns":9000000000000000000`, nil},
	{"negative span", `"span_ns":-1`, nil},
	{"unknown scale", `"scale":"huge"`, []string{"-scale", "huge"}},
	{"unknown workload", `"workloads":["doom"]`, []string{"-workloads", "doom"}},
	{"repeated workload", `"workloads":["minife","minife"]`, []string{"-workloads", "minife,minife"}},
	{"misspelled field", `"workload":["minife"]`, nil},
}

// TestBadSpecsRejectedAtEveryDoor drives one table of bad sweep specs
// through reproduce's flags, POST /v1/sweep and POST /cluster/sweep.
// Each answers before any work starts: exit 1 with nothing on stdout,
// or 400 with no job submitted and no journal record appended — not a
// 202 whose job fails in the driver, nor a durable sweep every worker
// burns its retry budget on.
func TestBadSpecsRejectedAtEveryDoor(t *testing.T) {
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "reproduce")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/reproduce")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build reproduce: %v", err)
	}

	journal := &recorder{}
	coord := NewCoordinator()
	coord.wal = journal
	q := jobs.New(jobs.Config{Workers: 1})
	srv, err := server.New(server.Config{Queue: q, Cache: simcache.New(0), Advisor: advise.NewService(advise.Config{}), Routes: coord.Routes()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		return resp.StatusCode, msg.String()
	}
	doors := []struct{ path, selector string }{
		{"/v1/sweep", `"figure":"4"`},
		{"/cluster/sweep", `"figures":["4"]`},
	}
	// The selection itself can be bad too.
	bodies := map[string][2]string{
		"unknown figure":  {`{"figure":"12"}`, `{"figures":["12"]}`},
		"figure 2":        {`{"figure":"2"}`, `{"figure":"2"}`},
		"both selectors":  {`{"figure":"4","figures":["5"]}`, `{"figure":"4","figures":["5"]}`},
		"repeated figure": {`{"figures":["4","4"]}`, `{"figures":["4","4"]}`},
		"trailing data":   {`{"figure":"4"} {}`, `{"figures":["4"]} x`},
	}
	for _, bad := range badSpecs {
		bodies[bad.name] = [2]string{
			fmt.Sprintf("{%s,%s}", doors[0].selector, bad.fields),
			fmt.Sprintf("{%s,%s}", doors[1].selector, bad.fields),
		}
	}
	for name, pair := range bodies {
		for i, door := range doors {
			if code, msg := post(door.path, pair[i]); code != http.StatusBadRequest {
				t.Errorf("%s: POST %s %s = %d %s, want 400", name, door.path, pair[i], code, msg)
			}
		}
	}
	if st := q.Stats(); st.Submitted != 0 {
		t.Errorf("%d rejected /v1/sweep bodies reached the job queue", st.Submitted)
	}
	if st := coord.StatusSnapshot(); len(st.Sweeps) != 0 || len(journal.recs) != 0 {
		t.Errorf("rejected /cluster/sweep bodies left %d sweeps and %d journal records", len(st.Sweeps), len(journal.recs))
	}

	out := filepath.Join(tmp, "out")
	flagCases := append([]badSpec{{"unknown figure", "", []string{"-only", "12"}}}, badSpecs...)
	for _, bad := range flagCases {
		if bad.flags == nil {
			continue
		}
		args := append([]string{"-out", out}, bad.flags...)
		if bad.fields != "" {
			args = append([]string{"-only", "4"}, args...)
		}
		cmd := exec.Command(bin, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: reproduce %v: err = %v, want exit status 1", bad.name, args, err)
		}
		if stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "reproduce: ") || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%s: reproduce %v: stdout %q stderr %q, want one reproduce: line", bad.name, args, stdout.String(), stderr.String())
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: reproduce %v created its output directory", bad.name, args)
		}
	}
}

// TestSweepCreatedRecordsCompat: the sweep_created records the parent
// commit journaled (internal/core/testdata/spec_compat.json) decode
// into this version's record type, replay into the same plan and
// re-marshal to the same bytes.
func TestSweepCreatedRecordsCompat(t *testing.T) {
	raw, err := os.ReadFile("../core/testdata/spec_compat.json")
	if err != nil {
		t.Fatal(err)
	}
	var fixtures []struct{ Name, Kind, Payload string }
	if err := json.Unmarshal(raw, &fixtures); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, fx := range fixtures {
		if fx.Kind != "sweep_created" {
			continue
		}
		seen++
		var rec coordRecord
		if err := json.Unmarshal([]byte(fx.Payload), &rec); err != nil || rec.Spec == nil {
			t.Fatalf("%s: decode: %v", fx.Name, err)
		}
		again, err := json.Marshal(rec)
		if err != nil || string(again) != fx.Payload {
			t.Errorf("%s: re-marshals as\n     %s\nwant %s (%v)", fx.Name, again, fx.Payload, err)
		}
		if cells := rec.Spec.Cells(); len(cells) != len(rec.Spec.Figures)*len(rec.Spec.Workloads) {
			t.Errorf("%s: replans as %d cells for %d figures x %d workloads", fx.Name, len(cells), len(rec.Spec.Figures), len(rec.Spec.Workloads))
		}
	}
	if seen == 0 {
		t.Fatal("no sweep_created fixture")
	}
}

// TestWorkerRefusesGrantWithUnknownSpecField: a coordinator's answers
// are JSON from outside, read as strictly as a request body. A lease
// grant whose spec carries a field this build does not know is an
// error the worker logs and polls past; it is never run without the
// field.
func TestWorkerRefusesGrantWithUnknownSpecField(t *testing.T) {
	coord := newCoordinator(newFakeClock().Now)
	if _, _, err := coord.CreateSweep(fig4Spec(tinyOpts())); err != nil {
		t.Fatal(err)
	}
	id, _ := coord.Register("", "")
	g, err := coord.Lease(id)
	if err != nil || g == nil {
		t.Fatalf("lease: %v %v", g, err)
	}
	var grant map[string]any
	raw, _ := json.Marshal(g)
	if err := json.Unmarshal(raw, &grant); err != nil {
		t.Fatal(err)
	}
	grant["spec"].(map[string]any)["bogus"] = 1

	var mu sync.Mutex
	leases, reports := 0, 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/cluster/register":
			envelope.Write(w, http.StatusOK, registerResponse{WorkerID: "w1", LeaseTTLNano: int64(leaseTTL), Epoch: 1})
		case "/cluster/lease":
			leases++
			envelope.Write(w, http.StatusOK, map[string]any{"grant": grant})
		case "/cluster/report":
			reports++
			envelope.Write(w, http.StatusOK, struct{}{})
		default:
			envelope.Write(w, http.StatusOK, heartbeatResponse{})
		}
	}))
	defer ts.Close()
	wk := startWorker(t, ts.URL)
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := leases
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the worker asked for %d leases in 10 s", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	wk.stop()
	mu.Lock()
	defer mu.Unlock()
	if st := wk.queue.Stats(); st.Submitted != 0 || reports != 0 {
		t.Fatalf("the worker ran %d shard jobs and reported %d times on a grant it cannot read whole", st.Submitted, reports)
	}
}
