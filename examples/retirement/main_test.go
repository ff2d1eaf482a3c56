package main

import (
	"testing"

	"repro/internal/golden"
)

// TestGolden pins the example's stdout: the logged MTBCE, suppression
// and pages lost under each retirement policy, and the firmware
// slowdown each logged rate causes.
func TestGolden(t *testing.T) { golden.Stdout(t, "go", "run", ".") }
