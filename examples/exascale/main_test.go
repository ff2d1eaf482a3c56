package main

import (
	"testing"

	"repro/internal/golden"
)

// TestGolden pins the example's stdout: the Fig. 5-shaped table of
// firmware-first slowdowns per workload as exascale CE rates grow, at
// the reduced, scale-compensated node count.
func TestGolden(t *testing.T) { golden.Stdout(t, "go", "run", ".") }
