package main

import (
	"testing"

	"repro/internal/golden"
)

// TestGolden pins the example's stdout: the Fig. 3-shaped table of
// slowdowns as one node's MTBCE shrinks, per logging mode.
func TestGolden(t *testing.T) { golden.Stdout(t, "go", "run", ".") }
