package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/simcache"
)

// buildCesim builds the real binary, as cmd/reproduce's test does.
func buildCesim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cesim")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build cesim: %v", err)
	}
	return bin
}

// TestBadSpecRejectedUpFront: every invalid spec, and a stray argument
// (the flag package would stop at it and drop every flag after it),
// dies with exit status 1, one "cesim: ..." line and nothing on stdout
// — i.e. in Resolve or before, before a trace is generated.
func TestBadSpecRejectedUpFront(t *testing.T) {
	bin := buildCesim(t)
	ok := []string{"-mtbce", "1s", "-mode", "firmware-emca"}
	for _, tc := range []struct {
		name string
		args []string
		want string // fragment of the one stderr line
	}{
		{"unknown workload", append([]string{"-workload", "linpack"}, ok...), `"linpack"`},
		{"empty workload", append([]string{"-workload", ""}, ok...), "workload is required"},
		{"unknown system", []string{"-system", "nonesuch", "-mode", "firmware-emca"}, `"nonesuch"`},
		{"unknown mode", []string{"-mtbce", "1s", "-mode", "telepathy"}, `"telepathy"`},
		{"unknown preset", append([]string{"-fault-mix", "gamma-rays"}, ok...), "field-ddr4"},
		{"mtbce and system", append([]string{"-system", "cielo"}, ok...), "not both"},
		{"neither mtbce nor system", []string{"-mode", "firmware-emca"}, "mtbce_ns"},
		{"perevent and mode", append([]string{"-perevent", "1ms"}, ok...), "not both"},
		{"neither perevent nor mode", []string{"-mtbce", "1s"}, "per_event_ns"},
		{"negative mtbce", []string{"-mtbce", "-1s", "-mode", "firmware-emca"}, "mtbce_ns"},
		{"target past the last node", append([]string{"-nodes", "16", "-target", "16"}, ok...), "target 16"},
		{"target below -1", append([]string{"-target", "-2"}, ok...), "target -2"},
		{"target past the last rank of a cube", []string{"-workload", "lulesh", "-nodes", "128", "-iters", "2", "-reps", "1",
			"-mtbce", "1s", "-mode", "software-cmci", "-target", "126"}, "target 126 outside [-1, 125)"},
		{"target not a number", append([]string{"-target", "first"}, ok...), "-target"},
		{"one node", append([]string{"-nodes", "1"}, ok...), "nodes"},
		{"negative reps", append([]string{"-reps", "-1"}, ok...), "reps"},
		{"negative iters", append([]string{"-iters", "-1"}, ok...), "iters"},
		{"malformed duration", []string{"-mtbce", "5", "-mode", "firmware-emca"}, "-mtbce"},
		{"stray argument", []string{"-nodes", "8", "-iters", "2", "-reps", "1", "-mtbce", "1s", "-mode", "software-cmci", "stray-arg"}, `unexpected argument "stray-arg"`},
		{"flag after a stray argument", []string{"-nodes", "8", "-mtbce", "1s", "-mode", "software-cmci", "x", "-nodes", "16"}, `unexpected argument "x"`},
	} {
		cmd := exec.Command(bin, tc.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: err = %v, want exit status 1", tc.name, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote output before failing: %q", tc.name, stdout.String())
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "cesim: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: stderr %q, want one cesim: line mentioning %s", tc.name, msg, tc.want)
		}
	}
}

// TestCLIMatchesHTTP: one spec through `cesim -csv` and through POST
// /v1/simulate resolves once (core.RunSpec.Resolve) and so reports the
// same run: ranks, baseline makespan and the slowdown sample.
func TestCLIMatchesHTTP(t *testing.T) {
	bin := buildCesim(t)
	q := jobs.New(jobs.Config{Workers: 1})
	srv, err := server.New(server.Config{Queue: q, Cache: simcache.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, tc := range []struct {
		name string
		args []string
		body string
	}{
		{"explicit costs, one target node",
			[]string{"-workload", "lulesh", "-nodes", "64", "-iters", "8", "-mtbce", "500ms", "-perevent", "133ms", "-target", "3", "-seed", "1", "-reps", "3"},
			`{"workload":"lulesh","nodes":64,"iters":8,"mtbce_ns":500000000,"per_event_ns":133000000,"target":3,"seed":1,"reps":3}`},
		{"catalog names, defaults",
			[]string{"-workload", "minife", "-nodes", "16", "-system", "exascale-cielo-x10", "-mode", "firmware-emca"},
			`{"workload":"minife","nodes":16,"system":"exascale-cielo-x10","mode":"firmware-emca"}`},
		{"fault mix preset",
			[]string{"-workload", "hpcg", "-nodes", "16", "-iters", "4", "-mtbce", "200ms", "-mode", "software-cmci", "-fault-mix", "bursty-row", "-seed", "5", "-reps", "2"},
			`{"workload":"hpcg","nodes":16,"iters":4,"mtbce_ns":200000000,"mode":"software-cmci","fault_mix_preset":"bursty-row","seed":5,"reps":2}`},
	} {
		out, err := exec.Command(bin, append(tc.args, "-csv")...).Output()
		if err != nil {
			t.Fatalf("%s: cesim: %v", tc.name, err)
		}
		rows, err := csv.NewReader(bytes.NewReader(out)).ReadAll()
		if err != nil {
			t.Fatalf("%s: cesim output: %v", tc.name, err)
		}
		cli := map[string]string{}
		for _, row := range rows {
			cli[row[0]] = row[1]
		}

		res := simulate(t, ts.URL, tc.body)
		if res.Slowdown == nil {
			t.Fatalf("%s: job produced no slowdown sample", tc.name)
		}
		for metric, want := range map[string]string{
			"ranks":             fmt.Sprint(res.Ranks),
			"baseline-makespan": report.Nanos(res.BaselineMakespanNanos),
			"mtbce-node":        report.Nanos(res.MTBCENanos),
			"per-event":         report.Nanos(res.PerEventNanos),
			"slowdown-mean":     report.Pct(res.Slowdown.MeanPct),
			"slowdown-min":      report.Pct(res.Slowdown.MinPct),
			"slowdown-max":      report.Pct(res.Slowdown.MaxPct),
			"reps":              fmt.Sprint(res.Slowdown.N),
		} {
			if cli[metric] != want {
				t.Errorf("%s: %s: cesim says %q, /v1/simulate says %q", tc.name, metric, cli[metric], want)
			}
		}
		if res.FaultMix != cli["fault-mix"] {
			t.Errorf("%s: fault mix: cesim says %q, /v1/simulate says %q", tc.name, cli["fault-mix"], res.FaultMix)
		}
	}
}

// simulate submits body and polls the job to its result.
func simulate(t *testing.T, base, body string) server.SimulateResult {
	t.Helper()
	resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct{ Poll string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d, %v", body, resp.StatusCode, err)
	}
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(base + sub.Poll)
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			State  jobs.State
			Error  string
			Result server.SimulateResult
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch snap.State {
		case jobs.Succeeded:
			return snap.Result
		case jobs.Failed, jobs.Canceled:
			t.Fatalf("job for %s %s: %s", body, snap.State, snap.Error)
		}
	}
	t.Fatalf("job for %s did not finish", body)
	return server.SimulateResult{}
}
