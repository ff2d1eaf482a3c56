package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-exascale-golden", false,
	"rewrite testdata/golden.txt from the live example")

// TestGolden pins the example's stdout: the Fig. 5-shaped table of
// firmware-first slowdowns per workload as exascale CE rates grow, at
// the reduced, scale-compensated node count.
// After an intentional model change:
//
//	go test ./examples/exascale/ -update-exascale-golden
func TestGolden(t *testing.T) {
	var got bytes.Buffer
	cmd := exec.Command("go", "run", ".")
	cmd.Stdout, cmd.Stderr = &got, os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run ./examples/exascale: %v", err)
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
		t.Fatalf("stdout moved from %s (regenerate with -update-exascale-golden if intended):\n%s", path, got.Bytes())
	}
}
