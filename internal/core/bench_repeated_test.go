package core

import (
	"testing"

	"repro/internal/collectives"
	"repro/internal/loggopsim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/tracegen"
)

// benchNoise builds the per-repetition CE model; each repetition gets a
// fresh model with its own seed, exactly as RunRepeated does.
func benchNoise(b *testing.B, ranks int, seed uint64) noise.Model {
	b.Helper()
	nm, err := noise.NewCE(ranks, noise.Config{
		Seed: seed, MTBCE: 50 * nsPerMs, Duration: noise.Fixed(1 * nsPerMs), Target: noise.AllNodes,
	})
	if err != nil {
		b.Fatal(err)
	}
	return nm
}

// BenchmarkRepeatedRuns compares the per-repetition cost of constructing
// a fresh simulator every run
// against reusing one Simulator's preallocated state across runs (the
// hot path of RunRepeated and the daemon's sweep jobs). Results
// are bit-identical by construction — see TestSimulatorReuseBitIdentical
// — so the allocs/op delta is pure overhead removed. This is a
// measure-while-you-work benchmark; recorded numbers and performance
// claims come from `go run ./bench` (BENCHMARK.json, bench/README.md).
func BenchmarkRepeatedRuns(b *testing.B) {
	tr, err := tracegen.Generate("minife", 64, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	ex, err := collectives.Expand(tr, collectives.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ranks := ex.NumRanks()
	cfg := loggopsim.Config{Net: netmodel.CrayXC40(), Profile: true}

	b.Run("fresh-simulate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sim, err := loggopsim.NewSimulator(ex, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(benchNoise(b, ranks, uint64(i)+1)); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("reused-simulator", func(b *testing.B) {
		sim, err := loggopsim.NewSimulator(ex, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(benchNoise(b, ranks, uint64(i)+1)); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Experiment-level: the pooled path everything above core sits on.
	b.Run("experiment-run-repeated", func(b *testing.B) {
		exp, err := NewExperiment(ExperimentConfig{
			Workload: "minife", Nodes: 64, Iterations: 5, TraceSeed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		sc := Scenario{
			MTBCE: 50 * nsPerMs, PerEvent: noise.Fixed(1 * nsPerMs), Target: noise.AllNodes, Seed: 1,
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exp.RunRepeated(sc, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkColdExperiment measures what a cache miss costs: per
// iteration, one NewExperiment and one perturbed Run for each of a
// handful of the benchmark's simulate_cold configurations (a faces and
// a full stencil, the cube-constrained workload, a 4D grid, 128-512
// nodes). Like BenchmarkRepeatedRuns it is for measuring while working;
// claims come from `go run ./bench`. state-B is the four baselines' run
// states together, the part of an experiment's cache price the engine
// sizes.
func BenchmarkColdExperiment(b *testing.B) {
	configs := []ExperimentConfig{
		{Workload: "minife", Nodes: 128, Iterations: 20, TraceSeed: 1},
		{Workload: "hpcg", Nodes: 256, Iterations: 12, TraceSeed: 1},
		{Workload: "lulesh", Nodes: 512, Iterations: 28, TraceSeed: 1},
		{Workload: "milc", Nodes: 512, Iterations: 36, TraceSeed: 1},
	}
	sc := Scenario{
		MTBCE: 200 * nsPerMs, PerEvent: noise.Fixed(775 * 1000), Target: noise.AllNodes, Seed: 1,
	}
	b.ReportAllocs()
	var state int64
	for i := 0; i < b.N; i++ {
		state = 0
		for _, cfg := range configs {
			exp, err := NewExperiment(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := exp.Run(sc); err != nil {
				b.Fatal(err)
			}
			sim := exp.acquireSim()
			state += sim.SizeBytes()
			exp.releaseSim(sim)
		}
	}
	b.ReportMetric(float64(state), "state-B")
}
