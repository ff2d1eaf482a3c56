package core

import (
	"fmt"
	"testing"

	"repro/internal/collectives"
	"repro/internal/loggopsim"
	"repro/internal/noise"
	"repro/internal/systems"
	"repro/internal/tracegen"
)

// BenchmarkPerturbedRun times one perturbed repetition — the inner loop
// of every figure cell and /v1/simulate request — on the program
// NewExperiment builds, whose collectives are segment references, and
// on Compile(Expand(Generate)) of the same configuration, whose
// collectives are inline (both share repeated exchanges). go run ./bench
// cannot tell the two apart: its traced run (bench/replay.go) feeds
// loggopsim an already expanded trace, so loggopsim.run_ms only ever
// times the second kind. The scenario is
// simulate_cold's (software logging, a CE every 200 ms per node); two
// of the workloads are collective-heavy, lammps-lj has no collective at
// all. A measure-while-you-work benchmark: run it with a fixed
// iteration count (-benchtime 20x -count 5) and read the minimum.
// state-B is the run state's size after the last repetition.
func BenchmarkPerturbedRun(b *testing.B) {
	for _, wl := range []string{"minife", "hpcg", "lulesh", "lammps-lj"} {
		for _, nodes := range []int{128, 512} {
			cfg := ExperimentConfig{Workload: wl, Nodes: nodes, Iterations: 20, TraceSeed: 1}.Canonical()
			e, err := NewExperiment(cfg)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := tracegen.Generate(wl, e.Ranks(), cfg.Iterations, cfg.TraceSeed)
			if err != nil {
				b.Fatal(err)
			}
			ex, err := collectives.Expand(tr, cfg.Collectives)
			if err != nil {
				b.Fatal(err)
			}
			flat, err := loggopsim.Compile(ex, loggopsim.Config{Net: cfg.Net, Profile: true})
			if err != nil {
				b.Fatal(err)
			}
			programs := []struct {
				name string
				exp  *Experiment
			}{
				{"segmented", e},
				{"flat", &Experiment{prog: flat, baseline: e.baseline, ranks: e.ranks}},
			}
			for _, p := range programs {
				b.Run(fmt.Sprintf("%s/%d/%s", wl, nodes, p.name), func(b *testing.B) {
					sim := p.exp.acquireSim()
					sc := Scenario{MTBCE: 200e6, PerEvent: noise.Fixed(systems.SoftwareCMCI.PerEventNanos), Target: noise.AllNodes}
					if _, err := p.exp.simulateOn(sim, sc); err != nil { // grows the event queue once
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						sc.Seed = uint64(i) + 1
						res, err := p.exp.simulateOn(sim, sc)
						if err != nil {
							b.Fatal(err)
						}
						if res.Perturbed.Makespan < e.baseline.Makespan {
							b.Fatalf("perturbed makespan %d below the baseline's %d", res.Perturbed.Makespan, e.baseline.Makespan)
						}
					}
					b.ReportMetric(float64(sim.SizeBytes()), "state-B")
				})
			}
		}
	}
}
