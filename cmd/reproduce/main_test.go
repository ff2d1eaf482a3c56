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

// TestUnknownOnlyRejectedUpFront builds the real binary and requires an
// -only id that names no figure or study to fail with one "reproduce: "
// line naming it, exit status 1, nothing on stdout and no output
// directory — a typo must not silently drop an artifact.
func TestUnknownOnlyRejectedUpFront(t *testing.T) {
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "reproduce")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build reproduce: %v", err)
	}
	for _, id := range []string{"10", "fig5"} {
		out := filepath.Join(tmp, "out-"+id)
		cmd := exec.Command(bin, "-out", out, "-only", id)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-only %s: err = %v, want exit status 1", id, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("-only %s wrote output before failing: %q", id, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "reproduce: ") || strings.Count(msg, "\n") != 1 ||
			!strings.Contains(msg, `"`+id+`"`) || !strings.Contains(msg, "ablation-noise-seeds") {
			t.Errorf("-only %s: stderr %q is not one line naming the bad id and the accepted ones", id, msg)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("-only %s: output directory exists (stat err = %v)", id, err)
		}
	}
}
