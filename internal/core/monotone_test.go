package core

import (
	"testing"

	"repro/internal/noise"
	"repro/internal/tracegen"
)

// TestSlowdownRisesWithPerEventDuration: under a common seed a node's
// CE arrivals are the same whatever each CE costs (noise.Fixed draws no
// randomness), so a longer detour can only lengthen the run. On the
// nine workloads, per seed, slowdown never falls as the per-event
// duration grows from the paper's 150 ns hardware cost to its 133 ms
// firmware one. The MTBCE keeps the CE load at 133 ms below 1.
func TestSlowdownRisesWithPerEventDuration(t *testing.T) {
	durations := []int64{150, 10e3, 775e3, 7e6, 133e6}
	const mtbce = 500e6
	for _, name := range tracegen.Names() {
		e, err := NewExperiment(ExperimentConfig{Workload: name, Nodes: 32, Iterations: 4, TraceSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rose := false
		for seed := uint64(1); seed <= 8; seed++ {
			first, prev := -1.0, -1.0
			for _, d := range durations {
				res, err := e.Run(Scenario{MTBCE: mtbce, PerEvent: noise.Fixed(d), Target: noise.AllNodes, Seed: seed})
				if err != nil {
					t.Fatalf("%s seed %d at %d ns: %v", name, seed, d, err)
				}
				if res.SlowdownPct < prev {
					t.Errorf("%s seed %d: slowdown fell to %.4f %% at %d ns from %.4f %% at the shorter duration",
						name, seed, res.SlowdownPct, d, prev)
				}
				if first < 0 {
					first = res.SlowdownPct
				}
				prev = res.SlowdownPct
			}
			rose = rose || prev > first
		}
		if !rose {
			t.Errorf("%s: no seed's slowdown grew with the duration; the check saw no CE", name)
		}
	}
}
