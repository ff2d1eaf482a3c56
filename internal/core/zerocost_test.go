package core

import (
	"slices"
	"testing"

	"repro/internal/noise"
	"repro/internal/tracegen"
)

// TestZeroCostCEsLeaveTheBaseline is a metamorphic property of the
// engine: CEs that cost 0 ns are charged — the run is simulated, not
// answered from the baseline — yet every rank finishes when it does
// without noise, on every workload and at every rate, so the slowdown
// is exactly 0 %.
func TestZeroCostCEsLeaveTheBaseline(t *testing.T) {
	for _, name := range tracegen.Names() {
		e, err := NewExperiment(ExperimentConfig{Workload: name, Nodes: 64, Iterations: 4, TraceSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		base := e.Baseline()
		for _, mtbce := range []int64{50e3, 1e6, 100e6} {
			sc := Scenario{MTBCE: mtbce, PerEvent: noise.Fixed(0), Target: noise.AllNodes, Seed: 1}
			res, err := e.Run(sc)
			if err != nil {
				t.Fatalf("%s at MTBCE %d ns: %v", name, mtbce, err)
			}
			if res.CEEvents == 0 {
				t.Fatalf("%s at MTBCE %d ns: no CE charged, the run never reached the engine's noise path", name, mtbce)
			}
			if res.SlowdownPct != 0 || res.Perturbed.Makespan != base.Makespan ||
				!slices.Equal(res.Perturbed.FinishTimes, base.FinishTimes) {
				t.Errorf("%s at MTBCE %d ns: %d zero-cost CEs moved the run: slowdown %v %%, makespan %d, baseline %d",
					name, mtbce, res.CEEvents, res.SlowdownPct, res.Perturbed.Makespan, base.Makespan)
			}
		}
	}
}
