package main

import (
	"testing"

	"repro/internal/golden"
)

// TestGolden pins the example's stdout: Poisson and bursty slowdowns at
// the same mean rate, the bursty column drawn from a faultmodel Process
// through noise.CE.
func TestGolden(t *testing.T) { golden.Stdout(t, "go", "run", ".") }
