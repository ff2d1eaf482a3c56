// retirement closes the loop between DRAM fault populations, the OS
// page-retirement policy, and application-visible CE logging overhead:
// the same fault-mode mixture is replayed through retirement policies
// of increasing aggressiveness, and the resulting *logged*-CE rate
// drives the large-scale overhead simulation.
//
//	go run ./examples/retirement
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/report"
	"repro/internal/retire"
	"repro/internal/systems"
)

func main() {
	// A failing DIMM population: the DDR4 field-study mixture at one CE
	// every 30 s per node, a rate at which this short run feels the
	// firmware logging cost.
	mix, err := systems.FaultMixByName("field-ddr4")
	if err != nil {
		log.Fatal(err)
	}
	base := retire.Config{
		Seed:  1,
		Hours: 24 * 30, // one month
		Spec:  mix.Spec.WithMTBCE(30e9),
	}

	exp, err := core.NewExperiment(core.ExperimentConfig{
		Workload:   "lulesh",
		Nodes:      64,
		Iterations: 40,
		TraceSeed:  1,
	})
	if err != nil {
		log.Fatal(err)
	}

	t := report.New("page retirement vs firmware CE-logging overhead (lulesh, 64 nodes)",
		"policy", "mtbce-logged", "suppression", "pages-lost", "fw-slowdown")
	for _, policy := range []retire.Policy{
		{Threshold: 0},                // retirement off
		{Threshold: 10, MaxPages: 64}, // conservative
		{Threshold: 2, MaxPages: 64},  // aggressive
		{Threshold: 1, MaxPages: 512}, // aggressive with a big budget
	} {
		cfg := base
		cfg.Policy = policy
		res, err := retire.Simulate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		mtbce := res.LoggedMTBCENanos(cfg.Hours)
		rep, err := exp.RunRepeated(core.Scenario{
			MTBCE:    mtbce,
			PerEvent: noise.Fixed(133_000_000),
			Target:   noise.AllNodes,
			Seed:     3,
		}, 3)
		if err != nil {
			log.Fatal(err)
		}
		slow := report.Pct(rep.Sample.Mean())
		if rep.Saturated && rep.Sample.N() == 0 {
			slow = "no-progress"
		}
		label := "off"
		if policy.Threshold > 0 {
			label = fmt.Sprintf("thr=%d/budget=%d", policy.Threshold, policy.MaxPages)
		}
		t.AddRow(label,
			report.Nanos(mtbce),
			fmt.Sprintf("%.1f%%", res.SuppressionPct()),
			fmt.Sprintf("%d", res.PagesRetired),
			slow)
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nReading: page retirement multiplies the effective MTBCE by silencing")
	fmt.Println("repeat offenders (permanent cell/row faults), directly buying back the")
	fmt.Println("firmware logging overhead — but column/bank faults and transient")
	fmt.Println("strikes evade any page budget, so retirement alone cannot rescue a")
	fmt.Println("truly failing DIMM.")
}
