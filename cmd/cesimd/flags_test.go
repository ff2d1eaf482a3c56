package main

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestBadInvocationsRejectedUpFront: a value the daemon would log and
// then replace with a default or ignore, an unparsable value and a flag
// it does not have (the deleted ones included) exit 1 with one
// "cesimd: " line naming it, before anything is served.
func TestBadInvocationsRejectedUpFront(t *testing.T) {
	bin := buildDaemon(t)
	addr := freeAddr(t)
	for _, tc := range []struct {
		args []string
		want string // stderr substring
	}{
		{[]string{"-cache-mb", "0", "-queue", "0", "-max-nodes", "0"}, "-queue 0 must be at least 1"},
		{[]string{"-cache-mb", "0"}, "-cache-mb 0"},
		{[]string{"-cache-mb", "-7"}, "-cache-mb -7"},
		{[]string{"-cache-mb", "9000000000000"}, "-cache-mb 9000000000000"},
		{[]string{"stray-arg"}, `"stray-arg"`},
		{[]string{"-sim-workers", "2"}, "flag provided but not defined: -sim-workers"},
		{[]string{"-lease-ttl", "1s"}, "flag provided but not defined: -lease-ttl"},
		{[]string{"-workers", "many"}, `invalid value "many" for flag -workers`},
		{[]string{"-workers", "-1"}, "-workers -1"},
		{[]string{"-job-timeout", "-1s"}, "-job-timeout -1s"},
		{[]string{"-max-nodes", "0"}, "-max-nodes 0"},
		{[]string{"-max-reps", "-1"}, "-max-reps -1"},
		{[]string{"-shed-watermark", "-1"}, "-shed-watermark -1"},
		{[]string{"-tenant-rate", "-1"}, "-tenant-rate -1"},
		{[]string{"-tenant-burst", "5"}, "-tenant-burst 5 requires -tenant-rate"},
		{[]string{"-tenant-jobs", "2", "-tenant-burst", "5"}, "-tenant-burst 5 requires -tenant-rate"},
		{[]string{"-tenant-jobs", "-1"}, "-tenant-jobs -1"},
		{[]string{"-tenant-disk-mb", "-1"}, "-tenant-disk-mb -1"},
	} {
		// A daemon that accepted the invocation would serve until the
		// deadline kills it, which fails the exit-status check.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", addr}, tc.args...)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: err = %v, want exit status 1", tc.args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v wrote output before failing: %q", tc.args, stdout.String())
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "cesimd: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr %q is not one cesimd: line naming %q", tc.args, msg, tc.want)
		}
	}
}

// TestDocumentedZerosBoot: the zeros the help text documents still
// start a daemon, here a coordinator.
func TestDocumentedZerosBoot(t *testing.T) {
	bin := buildDaemon(t)
	addr := freeAddr(t)
	startDaemon(t, bin, "-addr", addr,
		"-workers", "0", "-job-timeout", "0", "-shed-watermark", "0",
		"-tenant-rate", "0", "-tenant-burst", "0", "-tenant-jobs", "0", "-tenant-disk-mb", "0",
		"-role", "coordinator")
	waitHealthy(t, "http://"+addr)
}
