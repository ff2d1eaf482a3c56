package main

import (
	"testing"

	"repro/internal/golden"
)

// TestGolden pins the example's stdout: per projected exascale rate, the
// DUE checkpoint/restart overhead beside the CE logging overhead of
// software and firmware-first logging.
func TestGolden(t *testing.T) { golden.Stdout(t, "go", "run", ".") }
