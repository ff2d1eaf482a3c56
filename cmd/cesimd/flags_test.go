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
// then replace with a default or ignore exits 1 with one "cesimd: "
// line naming it, before anything is served.
func TestBadInvocationsRejectedUpFront(t *testing.T) {
	bin := buildDaemon(t)
	addr := freeAddr(t)
	for _, tc := range []struct {
		args []string
		want string // stderr substring
	}{
		{[]string{"-cache-mb", "0", "-queue", "0", "-retain", "-3", "stray-arg"}, "-queue 0 must be at least 1"},
		{[]string{"-cache-mb", "0"}, "-cache-mb 0"},
		{[]string{"-cache-mb", "-7"}, "-cache-mb -7"},
		{[]string{"-cache-mb", "9000000000000"}, "-cache-mb 9000000000000"},
		{[]string{"-retain", "-3"}, "-retain -3"},
		{[]string{"stray-arg"}, `"stray-arg"`},
		{[]string{"-workers", "-1"}, "-workers -1"},
		{[]string{"-sim-workers", "-2"}, "-sim-workers -2"},
		{[]string{"-job-timeout", "-1s"}, "-job-timeout -1s"},
		{[]string{"-max-nodes", "0"}, "-max-nodes 0"},
		{[]string{"-max-reps", "-1"}, "-max-reps -1"},
		{[]string{"-shed-watermark", "-1"}, "-shed-watermark -1"},
		{[]string{"-advise-tenants", "0"}, "-advise-tenants 0"},
		{[]string{"-advise-nodes-per-tenant", "0"}, "-advise-nodes-per-tenant 0"},
		{[]string{"-advise-batch", "-5"}, "-advise-batch -5"},
		{[]string{"-advise-cache", "0"}, "-advise-cache 0"},
		{[]string{"-advise-half-life", "0s"}, "-advise-half-life 0s"},
		{[]string{"-tenant-rate", "-1"}, "-tenant-rate -1"},
		{[]string{"-tenant-burst", "5"}, "-tenant-burst 5 requires -tenant-rate"},
		{[]string{"-tenant-jobs", "2", "-tenant-burst", "5"}, "-tenant-burst 5 requires -tenant-rate"},
		{[]string{"-tenant-jobs", "-1"}, "-tenant-jobs -1"},
		{[]string{"-tenant-disk-mb", "-1"}, "-tenant-disk-mb -1"},
		{[]string{"-lease-ttl", "1ms"}, "-lease-ttl 1ms requires -role coordinator"},
		{[]string{"-role", "coordinator", "-lease-ttl", "0s"}, "-lease-ttl 0s"},
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

// TestDocumentedZerosBoot: the zeros and negatives the help text
// documents, and the coordinator's lease flags, still start a daemon.
func TestDocumentedZerosBoot(t *testing.T) {
	bin := buildDaemon(t)
	addr := freeAddr(t)
	startDaemon(t, bin, "-addr", addr,
		"-workers", "0", "-sim-workers", "0", "-job-timeout", "0", "-job-retries", "-1",
		"-shed-watermark", "0", "-advise-cache", "-1",
		"-tenant-rate", "0", "-tenant-burst", "0", "-tenant-jobs", "0", "-tenant-disk-mb", "0",
		"-role", "coordinator", "-lease-ttl", "1s")
	waitHealthy(t, "http://"+addr)
}
