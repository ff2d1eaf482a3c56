package main

import (
	"testing"

	"repro/internal/golden"
)

// TestGolden pins the example's stdout: the Fig. 2 table of the 48-core
// Blake node's five noise signatures and the firmware signature's tall
// detours on core 0. It is the full-scale Fig. 2 check (under 1 GiB
// resident, ~20 s on 2 vCPUs); internal/core's TestFigure2Signatures
// runs the same figure on 4 cores.
func TestGolden(t *testing.T) { golden.Stdout(t, "go", "run", ".") }
