package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder is a testing.TB whose Errorf is captured instead of failing
// the test; everything else goes to the real test.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func writeGolden(t *testing.T, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden.txt")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckMatchingBytesPass(t *testing.T) {
	path := writeGolden(t, "alpha\nbeta\n")
	r := &recorder{TB: t}
	Check(r, path, []byte("alpha\nbeta\n"))
	if len(r.errs) != 0 {
		t.Fatalf("matching bytes reported %q", r.errs)
	}
}

func TestCheckOneByteChangeNamesPathLineAndCommand(t *testing.T) {
	path := writeGolden(t, "alpha\nbeta\ngamma\n")
	for _, tc := range []struct {
		got, line string
	}{
		{"alpha\nbetA\ngamma\n", ":2:"},
		{"alpha\nbeta\ngamma", ":3:"}, // lost the final newline
		{"alpha\nbeta\ngamma\n\n", ":4:"},
	} {
		r := &recorder{TB: t}
		Check(r, path, []byte(tc.got))
		if len(r.errs) != 1 {
			t.Fatalf("%q: reported %q, want one error", tc.got, r.errs)
		}
		msg := r.errs[0]
		for _, want := range []string{path + tc.line, command, "-update"} {
			if !strings.Contains(msg, want) {
				t.Errorf("%q: message %q does not mention %q", tc.got, msg, want)
			}
		}
	}
}

func TestCheckMissingGoldenSaysHowToCreateIt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.json")
	r := &recorder{TB: t}
	Check(r, path, []byte("{}\n"))
	if len(r.errs) != 1 {
		t.Fatalf("reported %q, want one error", r.errs)
	}
	msg := r.errs[0]
	for _, want := range []string{path, "create it with: " + command} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q does not mention %q", msg, want)
		}
	}
}

func TestUpdateWritesGoldenThenChecks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "new", "testdata", "golden.txt")
	got := []byte("line one\nline two\n")
	*update = true
	t.Cleanup(func() { *update = false })
	r := &recorder{TB: t}
	Check(r, path, got)
	*update = false
	if len(r.errs) != 0 {
		t.Fatalf("update reported %q", r.errs)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(got) {
		t.Fatalf("wrote %q, want %q", data, got)
	}
	Check(r, path, got)
	if len(r.errs) != 0 {
		t.Fatalf("check after update reported %q", r.errs)
	}
}
