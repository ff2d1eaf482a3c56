package main

import (
	"testing"

	"repro/internal/golden"
)

// TestGolden pins the example's stdout: the baseline makespan and both
// logging modes' slowdown samples.
func TestGolden(t *testing.T) { golden.Stdout(t, "go", "run", ".") }
