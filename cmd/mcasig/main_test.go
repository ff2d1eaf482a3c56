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

// TestBadInvocationsRejectedUpFront requires every flag value the
// measurement would silently replace with a default, a -core outside
// -cores, a stray argument and an unknown mode to fail with exit status
// 1, nothing on stdout and one "mcasig: " line naming the bad value.
func TestBadInvocationsRejectedUpFront(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "mcasig")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build mcasig: %v", err)
	}
	for _, tc := range []struct {
		args []string
		want string // stderr substring
	}{
		{[]string{"-cores", "0"}, "-cores must be at least 1, got 0"},
		{[]string{"-duration", "0"}, "-duration must be positive, got 0s"},
		{[]string{"-mode", "firmware", "-period", "0"}, "-period must be positive, got 0s"},
		{[]string{"-core", "99", "-detours"}, "-core 99"},
		{[]string{"-core", "-2", "-plot"}, "-core -2"},
		{[]string{"-mode", "firmware", "extra"}, `"extra"`},
		{[]string{"-mode", "bogus"}, `"bogus"`},
		{[]string{"-bogus"}, "-bogus"},
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
		if !strings.HasPrefix(msg, "mcasig: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr %q is not one mcasig: line naming %q", tc.args, msg, tc.want)
		}
	}
}
