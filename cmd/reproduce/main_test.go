package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildReproduce builds the real binary into a fresh temporary directory
// and returns the directory and the binary's path.
func buildReproduce(t *testing.T) (tmp, bin string) {
	t.Helper()
	tmp = t.TempDir()
	bin = filepath.Join(tmp, "reproduce")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build reproduce: %v", err)
	}
	return tmp, bin
}

// requireRejected runs bin with -out out and args and requires it to fail
// with one "reproduce: " line containing every string in mention, exit
// status 1, nothing on stdout and no output directory.
func requireRejected(t *testing.T, bin, out string, args []string, mention ...string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-out", out}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("%v: err = %v, want exit status 1", args, err)
	}
	if stdout.Len() != 0 {
		t.Errorf("%v wrote output before failing: %q", args, stdout.String())
	}
	msg := stderr.String()
	if !strings.HasPrefix(msg, "reproduce: ") || strings.Count(msg, "\n") != 1 {
		t.Errorf("%v: stderr %q is not one reproduce: line", args, msg)
	}
	for _, m := range mention {
		if !strings.Contains(msg, m) {
			t.Errorf("%v: stderr %q does not mention %s", args, msg, m)
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("%v: output directory exists (stat err = %v)", args, err)
	}
}

// TestUnknownOnlyRejectedUpFront requires an -only id that names no
// artifact to be rejected with a line naming it and the accepted ids — a
// typo must not silently drop an artifact.
func TestUnknownOnlyRejectedUpFront(t *testing.T) {
	tmp, bin := buildReproduce(t)
	for _, id := range []string{"10", "fig5"} {
		requireRejected(t, bin, filepath.Join(tmp, "out-"+id), []string{"-only", id},
			`"`+id+`"`, "surface", "ablation-noise-seeds")
	}
}

// TestBadScaleRejectedUpFront requires an unknown -scale to be rejected
// before any simulation starts, whichever artifacts are selected — an
// overhead surface is minutes of work the bad spec would then fail.
func TestBadScaleRejectedUpFront(t *testing.T) {
	tmp, bin := buildReproduce(t)
	for i, sel := range [][]string{nil, {"-only", "surface", "-workloads", "minife"}, {"-only", "3"}} {
		requireRejected(t, bin, filepath.Join(tmp, "out", string(rune('a'+i))),
			append(sel, "-scale", "bogus"), `"bogus"`, "reduced", "paper")
	}
}

// TestBadInvocationRejectedUpFront requires every other malformed spec,
// and a stray argument with or without flags after it, to be rejected
// with a line naming the bad value, before any simulation starts.
func TestBadInvocationRejectedUpFront(t *testing.T) {
	tmp, bin := buildReproduce(t)
	for i, tc := range []struct {
		args    []string
		mention []string
	}{
		{[]string{"-workloads", "doom"}, []string{`"doom"`}},
		{[]string{"-workloads", "minife,minife"}, []string{`"minife"`, "twice"}},
		{[]string{"-nodes", "1"}, []string{"nodes"}},
		{[]string{"stray"}, []string{`unexpected argument "stray"`}},
		{[]string{"-nodes", "16", "stray", "-iters", "2"}, []string{`unexpected argument "stray"`}},
	} {
		requireRejected(t, bin, filepath.Join(tmp, "out", string(rune('a'+i))), tc.args, tc.mention...)
	}
}
