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

// TestBadScaleRejectedUpFront builds the real binary and requires every
// mode — -surface used to fall through to reduced scale — to reject an
// unknown -scale with exit status 1 and nothing on stdout, i.e. before
// any simulation starts (a default surface is minutes of work).
func TestBadScaleRejectedUpFront(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "cesweep")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build cesweep: %v", err)
	}
	for _, mode := range [][]string{{"-surface", "minife"}, {"-figure", "3"}, {"-table", "2"}} {
		cmd := exec.Command(bin, append(mode, "-scale", "bogus")...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v -scale bogus: err = %v, want exit status 1", mode, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v -scale bogus wrote output before failing: %q", mode, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "cesweep: ") || !strings.Contains(msg, `"bogus"`) ||
			!strings.Contains(msg, "reduced") || !strings.Contains(msg, "paper") {
			t.Errorf("%v -scale bogus: stderr %q does not name the bad value and the accepted ones", mode, msg)
		}
	}
}
