package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-anatomy-golden", false,
	"rewrite testdata/golden.txt from the live example")

// TestGolden pins the example's stdout. The induced-wait column is a
// difference of two runs' Profile.Wait, so the bytes pin the profile of
// the clean run as well as the noisy one. After an intentional model
// change:
//
//	go test ./examples/anatomy/ -update-anatomy-golden
func TestGolden(t *testing.T) {
	var got bytes.Buffer
	cmd := exec.Command("go", "run", ".")
	cmd.Stdout, cmd.Stderr = &got, os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run ./examples/anatomy: %v", err)
	}
	path := filepath.Join("testdata", "golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("stdout moved from %s (regenerate with -update-anatomy-golden if intended):\n%s", path, got.Bytes())
	}
}
