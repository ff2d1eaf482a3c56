// cesim runs a single correctable-error overhead simulation: one
// workload at one scale under one CE scenario, and reports the slowdown
// against the noise-free baseline.
//
// Examples:
//
//	cesim -workload lulesh -nodes 512 -iters 10 -mtbce 5544s -perevent 133ms
//	cesim -workload hpcg -nodes 256 -mtbce 1s -perevent 775us -target 0 -reps 8
//	cesim -workload minife -nodes 128 -system exascale-cielo-x10 -mode firmware-emca
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/noise"
	"repro/internal/report"
	"repro/internal/systems"
)

func main() {
	var (
		workload = flag.String("workload", "minife", "workload name (see cmd/tracegen -list)")
		nodes    = flag.Int("nodes", 128, "target node count (one rank per node)")
		iters    = flag.Int("iters", 8, "main-loop iterations")
		mtbce    = flag.Duration("mtbce", 0, "per-node mean time between CEs (e.g. 5544s); 0 with -system uses Table II")
		perEvent = flag.Duration("perevent", 0, "per-CE handling time (e.g. 133ms); 0 with -mode uses the named scenario")
		system   = flag.String("system", "", "Table II system supplying the MTBCE (e.g. exascale-cielo-x10)")
		mode     = flag.String("mode", "", "logging mode supplying the per-event cost (hardware-only, software-cmci, firmware-emca)")
		faultMix = flag.String("fault-mix", "", "fault-mode mixture replacing the Poisson arrivals: a preset name (field-ddr4, high-altitude, skewed-dimms, bursty-row) or a JSON spec file (docs/FAULTMODEL.md)")
		target   = flag.Int("target", int(noise.AllNodes), "node experiencing CEs, or -1 for all nodes")
		seed     = flag.Uint64("seed", 1, "base random seed")
		reps     = flag.Int("reps", 3, "repetitions (distinct CE schedules)")
		csvOut   = flag.Bool("csv", false, "emit CSV instead of an aligned table")
	)
	flag.Parse()

	// Validate every flag combination before any pipeline work, so a
	// bad invocation dies with one clear line instead of whatever the
	// trace generator or noise model reports downstream.
	var mixSpec *faultmodel.Spec // nil without -fault-mix
	mixMTBCE := int64(0)
	if *faultMix != "" {
		spec, err := systems.ResolveFaultMix(*faultMix)
		if err != nil {
			fatal(fmt.Errorf("cesim: %w", err))
		}
		mixSpec, mixMTBCE = &spec, spec.MTBCENanos
	}
	if err := validateFlags(*workload, *nodes, *iters, *mtbce, *perEvent, *system, *mode, *target, *reps, mixMTBCE); err != nil {
		fatal(fmt.Errorf("cesim: %w", err))
	}
	mtbceNanos := int64(*mtbce)
	if mixMTBCE != 0 {
		mtbceNanos = mixMTBCE
	}
	if *system != "" {
		sys, err := systems.ByName(*system)
		if err != nil {
			fatal(err)
		}
		mtbceNanos = sys.MTBCENanos()
	}
	perEventNanos := int64(*perEvent)
	if *mode != "" {
		m, err := systems.LoggingModeByName(*mode)
		if err != nil {
			fatal(err)
		}
		perEventNanos = m.PerEventNanos
	}

	var arrivals noise.Arrivals
	if mixSpec != nil {
		proc, err := mixSpec.WithMTBCE(mtbceNanos).Process()
		if err != nil {
			fatal(fmt.Errorf("cesim: -fault-mix: %w", err))
		}
		arrivals = proc
	}

	exp, err := core.NewExperiment(core.ExperimentConfig{
		Workload: *workload, Nodes: *nodes, Iterations: *iters, TraceSeed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	rep, err := exp.RunRepeated(core.Scenario{
		MTBCE:    mtbceNanos,
		Arrivals: arrivals,
		PerEvent: noise.Fixed(perEventNanos),
		Target:   int32(*target),
		Seed:     *seed + 1,
	}, *reps)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	t := report.New(fmt.Sprintf("cesim: %s on %d nodes", *workload, exp.Ranks()),
		"metric", "value")
	t.AddRow("ranks", fmt.Sprintf("%d", exp.Ranks()))
	t.AddRow("baseline-makespan", report.Nanos(exp.Baseline().Makespan))
	t.AddRow("mtbce-node", report.Nanos(mtbceNanos))
	t.AddRow("per-event", report.Nanos(perEventNanos))
	if arrivals != nil {
		t.AddRow("fault-mix", arrivals.String())
	}
	if rep.Saturated && rep.Sample.N() == 0 {
		t.AddRow("slowdown", "no-progress (CE load >= 1)")
	} else {
		s := rep.Sample.Summarize()
		t.AddRow("slowdown-mean", report.Pct(s.Mean))
		t.AddRow("slowdown-ci95", report.Pct(s.CI95))
		t.AddRow("slowdown-min", report.Pct(s.Min))
		t.AddRow("slowdown-max", report.Pct(s.Max))
		t.AddRow("reps", fmt.Sprintf("%d", s.N))
	}
	t.AddRow("wall-time", elapsed.Truncate(time.Millisecond).String())

	var werr error
	if *csvOut {
		werr = t.WriteCSV(os.Stdout)
	} else {
		werr = t.WriteASCII(os.Stdout)
	}
	if werr != nil {
		fatal(werr)
	}
}

// validateFlags rejects inconsistent flag combinations up front.
// mixMTBCE is the mtbce_ns carried by a -fault-mix spec (0 when absent),
// which can stand in for -mtbce/-system.
func validateFlags(workload string, nodes, iters int, mtbce, perEvent time.Duration, system, mode string, target, reps int, mixMTBCE int64) error {
	if workload == "" {
		return fmt.Errorf("-workload is required")
	}
	if nodes < 2 {
		return fmt.Errorf("-nodes must be at least 2, got %d", nodes)
	}
	if iters < 1 {
		return fmt.Errorf("-iters must be at least 1, got %d", iters)
	}
	switch {
	case mtbce == 0 && system == "" && mixMTBCE == 0:
		return fmt.Errorf("provide -mtbce, -system, or a -fault-mix spec carrying mtbce_ns")
	case mtbce != 0 && system != "":
		return fmt.Errorf("-mtbce and -system are mutually exclusive")
	case mixMTBCE != 0 && (mtbce != 0 || system != ""):
		return fmt.Errorf("the -fault-mix spec carries mtbce_ns; don't also set -mtbce or -system")
	case mtbce < 0:
		return fmt.Errorf("-mtbce must be positive, got %s", mtbce)
	}
	switch {
	case perEvent == 0 && mode == "":
		return fmt.Errorf("provide -perevent or -mode")
	case perEvent != 0 && mode != "":
		return fmt.Errorf("-perevent and -mode are mutually exclusive")
	case perEvent < 0:
		return fmt.Errorf("-perevent must be positive, got %s", perEvent)
	}
	if target < int(noise.AllNodes) || target >= nodes {
		return fmt.Errorf("-target must be -1 (all nodes) or a node in [0,%d), got %d", nodes, target)
	}
	if reps < 1 {
		return fmt.Errorf("-reps must be at least 1, got %d", reps)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
