package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-mcasignature-golden", false,
	"rewrite testdata/golden.txt from the live example")

// TestGolden pins the example's stdout: the Fig. 2 table of the
// 48-core Blake node's five noise signatures and the firmware
// signature's tall detours on core 0. It is the full-scale Fig. 2
// check (~3.3 GiB resident, ~20 s); internal/core's
// TestFigure2Signatures runs the same figure on 4 cores.
// After an intentional model change:
//
//	go test ./examples/mcasignature/ -update-mcasignature-golden
func TestGolden(t *testing.T) {
	var got bytes.Buffer
	cmd := exec.Command("go", "run", ".")
	cmd.Stdout, cmd.Stderr = &got, os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run ./examples/mcasignature: %v", err)
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
		t.Fatalf("stdout moved from %s (regenerate with -update-mcasignature-golden if intended):\n%s", path, got.Bytes())
	}
}
