package main

import (
	"testing"

	"repro/internal/golden"
)

// TestGolden pins the example's stdout. The induced-wait column is a
// difference of two runs' Profile.Wait, so the bytes pin the profile of
// the clean run as well as the noisy one.
func TestGolden(t *testing.T) { golden.Stdout(t, "go", "run", ".") }
