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

// TestBadInvocationsRejectedUpFront requires a value the command would
// silently ignore or replace, a stray argument, an unreadable input and
// an output that cannot be written to fail with exit status 1, nothing
// on stdout and one "tracegen: " line naming the bad value.
func TestBadInvocationsRejectedUpFront(t *testing.T) {
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "tracegen")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build tracegen: %v", err)
	}
	out := filepath.Join(tmp, "out.trace")
	// A trace written by the binary codec older builds had
	// (twoRankPingPong in internal/trace's tests).
	old := filepath.Join(tmp, "old.trace")
	if err := os.WriteFile(old, []byte("CETR\x01\bpingpong\x02\x04\x00\x00\x00\x00\x00d\x01\x02\x0e\x00\x80\b\x00\x02\x02\x10\x00\x80\b\x00\n\x00\x00\x00\b\x00\x04\x00\x00\x00\x00\x002\x02\x00\x0e\x00\x80\b\x00\x01\x00\x10\x00\x80\b\x00\n\x00\x00\x00\b\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Text the old reader accepted although Validate refuses it.
	invalid := filepath.Join(tmp, "invalid.txt")
	if err := os.WriteFile(invalid, []byte("ranks 2\nrank 0\nsend 7 8 0\nrank 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	small := filepath.Join(tmp, "small.trace")
	if msg, err := exec.Command(bin, "-workload", "lulesh", "-nodes", "8", "-iters", "1", "-o", small).CombinedOutput(); err != nil {
		t.Fatalf("writing %s: %v\n%s", small, err, msg)
	}
	type rejection struct {
		args []string
		want string // stderr substring
	}
	cases := []rejection{
		{[]string{"-workload", "lulesh", "-format", "text", "-o", out}, "flag provided but not defined: -format"},
		{[]string{"-i", old, "-stats"}, "line 1: unknown op"},
		{[]string{"-i", invalid, "-o", out}, "peer 7 out of range"},
		{[]string{"-i", old, "-workload", "lulesh", "-stats"}, "-i does not read -workload"},
		{[]string{"-list", "-workload", "bogus"}, "-list does not read -workload"},
		{[]string{"-list", "-i", old}, "-list does not read -i"},
		{[]string{"-workload", "lulesh", "-extrapolate", "-2", "-stats"}, "got -2"},
		{[]string{"-workload", "lulesh", "extra", "-stats"}, `"extra"`},
		{[]string{"-i", "/nonexistent", "-stats"}, "/nonexistent"},
		{[]string{"-workload", "bogus"}, `"bogus"`},
		{[]string{"-fault-mix", "field-ddr4", "-ce-events", "0"}, "got 0"},
		// A flag the selected mode does not read.
		{[]string{"-fault-mix", "field-ddr4", "-ce-events", "2", "-stats", "-expand", "-extrapolate", "4"}, "-fault-mix does not read -expand, -extrapolate, -stats"},
		{[]string{"-i", small, "-nodes", "4096", "-iters", "99", "-seed", "5", "-stats"}, "-i does not read -iters, -nodes, -seed"},
		{[]string{"-workload", "lulesh", "-ce-events", "7", "-ce-tenant", "x", "-stats"}, "-workload does not read -ce-events, -ce-tenant"},
		{[]string{"-bogus"}, "-bogus"},
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Log("no /dev/full, skipping the write failure:", err)
	} else {
		full := filepath.Join(tmp, "full.trace")
		if err := os.Symlink("/dev/full", full); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, rejection{[]string{"-workload", "lulesh", "-o", full}, "writing " + full})
	}
	for _, tc := range cases {
		cmd := exec.Command(bin, tc.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit status 1", tc.args, err)
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("%v wrote output before failing: %q", tc.args, stdout.String())
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "tracegen: ") || strings.Count(msg, "\n") != 1 ||
			strings.Count(msg, "tracegen: ") != 1 || !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr %q is not one tracegen: line naming %q", tc.args, msg, tc.want)
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a rejected invocation wrote %s (stat err = %v)", out, err)
	}
}
