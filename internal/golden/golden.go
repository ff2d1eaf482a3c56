// Package golden compares test output with committed golden files. It
// holds the repository's one -update flag; only tests import it.
package golden

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// command regenerates every golden file in the repository. Only the
// packages it names import this one, so only their test binaries
// accept -update; a package that starts checking a golden joins it.
const command = "go test ./examples/... ./cmd/retiresim ./internal/core ./internal/campaign ./internal/server ./docs -run Golden -update"

var update = flag.Bool("update", false, "rewrite golden files from the live output instead of comparing")

// Check compares got with the file at path. A mismatch is reported
// through t.Errorf as the path, the first differing line and the
// regenerate command, so a test checking several files reports every
// one that moved. With -update it writes got to path instead, creating
// the directory.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("%v\ncreate it with: %s", err, command)
		return
	}
	if bytes.Equal(got, want) {
		return
	}
	line, g, w := firstDiff(got, want)
	t.Errorf("%s:%d: live output differs from the golden\n got: %q\nwant: %q\nregenerate, if the change is intended, with: %s",
		path, line, g, w, command)
}

// firstDiff returns the 1-based number of the first line, newline
// included, where got and want differ, and that line of each; a side
// that has already ended reads "<EOF>".
func firstDiff(got, want []byte) (line int, g, w string) {
	gl, wl := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
	at := func(lines [][]byte, i int) string {
		if i < len(lines) && len(lines[i]) > 0 {
			return string(lines[i])
		}
		return "<EOF>"
	}
	i, n := 0, max(len(gl), len(wl))
	for i < n && at(gl, i) == at(wl, i) {
		i++
	}
	return i + 1, at(gl, i), at(wl, i)
}

// Stdout runs the command and checks its stdout against
// testdata/golden.txt; stderr passes through.
func Stdout(t testing.TB, name string, args ...string) {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s: %v", strings.Join(cmd.Args, " "), err)
	}
	Check(t, filepath.Join("testdata", "golden.txt"), out.Bytes())
}
