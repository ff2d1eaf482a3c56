// burstynode explores the paper's conclusion (iii): bursty
// correctable-error behaviour on a single node. A failing DIMM rarely
// produces a smooth Poisson CE stream — a faulty row emits trains of
// closely spaced errors separated by quiet stretches. This example
// compares a Poisson process against a bursty process with the *same
// average rate*, for software and firmware logging.
//
//	go run ./examples/burstynode
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/noise"
	"repro/internal/report"
)

func main() {
	exp, err := core.NewExperiment(core.ExperimentConfig{
		Workload:   "cth",
		Nodes:      64,
		Iterations: 20,
		TraceSeed:  1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Both processes average one CE per second on node 0. The bursty
	// one is a single row-fault mode that delivers them as trains of
	// ~20 CEs spaced 5 ms apart — the signature of a stuck row;
	// faultmodel solves for the quiet gap between trains that keeps the
	// 1 s mean (19.905 s).
	const meanGap = 1_000_000_000 // 1 s
	bursty, err := faultmodel.Spec{
		MTBCENanos: meanGap,
		Modes:      []faultmodel.Mode{{Kind: "row", Weight: 1, BurstLen: 20, BurstGapNanos: 5_000_000}},
	}.Process()
	if err != nil {
		log.Fatal(err)
	}

	t := report.New("single failing node on cth (64 nodes): Poisson vs bursty CEs at 1 CE/s",
		"logging", "poisson", "bursty")
	modes := []struct {
		name string
		cost int64
	}{
		{"software-cmci", 775_000},
		{"firmware-emca", 133_000_000},
	}
	for _, m := range modes {
		pois, err := exp.RunRepeated(core.Scenario{
			MTBCE: meanGap, PerEvent: noise.Fixed(m.cost), Target: 0, Seed: 5,
		}, 6)
		if err != nil {
			log.Fatal(err)
		}
		brst, err := exp.RunRepeated(core.Scenario{
			Arrivals: bursty, PerEvent: noise.Fixed(m.cost), Target: 0, Seed: 5,
		}, 6)
		if err != nil {
			log.Fatal(err)
		}
		cell := func(r *core.Repeated) string {
			if r.Saturated && r.Sample.N() == 0 {
				return "no-progress"
			}
			return report.Pct(r.Sample.Mean())
		}
		t.AddRow(m.name, cell(pois), cell(brst))
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nReading: at equal average rates, bursts concentrate detours into a few")
	fmt.Println("synchronization intervals. For long (firmware) events the rest of the")
	fmt.Println("machine stalls behind the bursting node either way; for short (software)")
	fmt.Println("events bursts change how much of the cost hides in network slack.")
}
