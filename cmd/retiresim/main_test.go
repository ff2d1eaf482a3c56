package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

// build compiles the real binary once per test.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "retiresim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("build retiresim: %v", err)
	}
	return bin
}

// TestGolden pins the stdout of the header examples that exercise the
// replay: retirement verdicts over faultmodel's real footprints.
func TestGolden(t *testing.T) {
	bin := build(t)
	var got bytes.Buffer
	for _, args := range [][]string{nil, {"-sweep"}, {"-fault-mix", "bursty-row"}} {
		got.WriteString(strings.Join(append([]string{"$ retiresim"}, args...), " ") + "\n")
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &got, os.Stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("retiresim %v: %v", args, err)
		}
	}
	golden.Check(t, filepath.Join("testdata", "golden.txt"), got.Bytes())
}

// TestBadInvocationsRejectedUpFront requires malformed flags, an
// unknown preset, an unusable spec and a stray argument to fail with
// exit status 1, nothing on stdout and one "retiresim: reason" line.
func TestBadInvocationsRejectedUpFront(t *testing.T) {
	bin := build(t)
	noModes := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(noModes, []byte(`{"modes":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string // stderr substring
	}{
		{[]string{"-bogus"}, "-bogus"},
		{[]string{"-years", "many"}, `"many"`},
		{[]string{"-mtbce", "3024"}, `"3024"`}, // a duration needs its unit
		{[]string{"-fault-mix", "no-such-mix"}, "field-ddr4, high-altitude"},
		{[]string{"-fault-mix", noModes}, "no modes"},
		{[]string{"-mtbce", "0s"}, "mtbce_ns"},
		{[]string{"-years", "0"}, "hours"},
		{[]string{"-threshold", "-1", "-sweep=false"}, "negative policy"},
		{[]string{"-years", "0.01", "stray"}, `unexpected argument "stray"`},
		{[]string{"stray", "-years", "0"}, `unexpected argument "stray"`},
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
		if !strings.HasPrefix(msg, "retiresim: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr %q is not one retiresim: line naming %q", tc.args, msg, tc.want)
		}
	}
}
