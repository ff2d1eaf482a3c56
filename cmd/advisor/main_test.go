package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/advise"
)

// good is a scenario every check accepts.
func good() advise.Inputs {
	return advise.Inputs{Workload: "lulesh", Nodes: 16384, GiBPerNode: 700, BudgetPct: 10}
}

// check is what main does with the parsed flags: the two name flags at
// the parse site, then Advise, whose first step is the scenario's own
// Validate.
func check(in advise.Inputs, mode, fault string) error {
	if err := checkNames(&in, mode, fault); err != nil {
		return err
	}
	_, err := advise.Advise(in)
	return err
}

func TestValidateFlagsRejectsBadInputs(t *testing.T) {
	cases := []struct {
		name        string
		mutate      func(*advise.Inputs)
		mode, fault string
		wantFrag    string
	}{
		{"zero nodes", func(in *advise.Inputs) { in.Nodes = 0 }, "firmware-emca", "", "nodes"},
		{"negative nodes", func(in *advise.Inputs) { in.Nodes = -4 }, "firmware-emca", "", "nodes"},
		{"zero gib", func(in *advise.Inputs) { in.GiBPerNode = 0 }, "firmware-emca", "", "GiB"},
		{"negative budget", func(in *advise.Inputs) { in.BudgetPct = -1 }, "firmware-emca", "", "budget"},
		{"unknown mode", func(*advise.Inputs) {}, "telepathy", "", "-mode"},
		{"unknown workload", func(in *advise.Inputs) { in.Workload = "doom" }, "firmware-emca", "", "workload"},
		{"unknown fault", func(*advise.Inputs) {}, "firmware-emca", "gremlin", "-fault"},
		{"negative perevent", func(in *advise.Inputs) { in.PerEventNanos = -int64(time.Second) }, "firmware-emca", "", "time"},
		{"negative mtbce", func(in *advise.Inputs) { in.ObservedMTBCENanos = -int64(time.Second) }, "firmware-emca", "", "time"},
	}
	for _, tc := range cases {
		in := good()
		tc.mutate(&in)
		err := check(in, tc.mode, tc.fault)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantFrag) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.wantFrag)
		}
	}
}

func TestValidateFlagsAccepts(t *testing.T) {
	cases := []struct {
		name        string
		mode, wl, f string
		perEvent    time.Duration
	}{
		{"catalog mode", "firmware-emca", "lulesh", "", 0},
		{"explicit perevent ignores mode", "not-a-mode-but-unused", "hpcg", "", 7 * time.Millisecond},
		{"fault kinds", "software-cmci", "milc", "row", 0},
	}
	for _, tc := range cases {
		in := advise.Inputs{Workload: tc.wl, Nodes: 1024, GiBPerNode: 512, BudgetPct: 5,
			PerEventNanos: int64(tc.perEvent), ObservedMTBCENanos: int64(time.Hour)}
		if err := check(in, tc.mode, tc.f); err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
	}
}

// TestJSONOutputMatchesEngine: the -json path emits exactly what
// advise.Advise computes — the same struct the service endpoint
// serves — so scripts can consume either interchangeably.
func TestJSONOutputMatchesEngine(t *testing.T) {
	in := advise.Inputs{
		Workload: "lulesh", Nodes: 4096, BudgetPct: 10, GiBPerNode: 512,
		ObservedMTBCENanos: int64(2 * time.Hour),
	}
	rec, err := advise.Advise(in)
	if err != nil {
		t.Fatal(err)
	}
	if rec.RecommendedMode == "" || len(rec.Modes) != 3 {
		t.Fatalf("engine output unusable for the CLI: %+v", rec)
	}
	if rec.Estimate != nil {
		t.Fatal("offline evaluation must not fabricate a node estimate")
	}
}

// TestBadInvocationsRejectedUpFront requires a malformed flag, a bad
// name and a stray argument — after which the flag package would drop
// every flag — to fail with exit status 1, nothing on stdout and one
// "advisor: reason" line.
func TestBadInvocationsRejectedUpFront(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "advisor")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build advisor: %v", err)
	}
	for _, tc := range []struct {
		args []string
		want string // stderr substring
	}{
		{[]string{"-bogus"}, "-bogus"},
		{[]string{"-nodes", "many"}, `"many"`},
		{[]string{"-mode", "telepathy"}, "-mode"},
		{[]string{"-nodes", "16", "stray"}, `unexpected argument "stray"`},
		{[]string{"stray", "-nodes", "0"}, `unexpected argument "stray"`},
	} {
		cmd := exec.Command(bin, tc.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: err = %v, want exit status 1", tc.args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v wrote output before failing: %q", tc.args, stdout.String())
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "advisor: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr %q is not one advisor: line naming %q", tc.args, msg, tc.want)
		}
	}
}
