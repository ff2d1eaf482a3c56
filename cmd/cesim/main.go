// cesim runs a single correctable-error overhead simulation: one
// workload at one scale under one CE scenario, and reports the slowdown
// against the noise-free baseline.
//
// Examples:
//
//	cesim -workload lulesh -nodes 512 -iters 10 -mtbce 5544s -perevent 133ms
//	cesim -workload hpcg -nodes 256 -mtbce 1s -perevent 775us -target 0 -reps 8
//	cesim -workload minife -nodes 128 -system exascale-cielo-x10 -mode firmware-emca
//
// The flags fill a core.RunSpec, the same spec POST /v1/simulate takes;
// docs/SERVICE.md has its field table and what each combination means.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/report"
)

func main() {
	fs := flag.NewFlagSet("cesim", flag.ContinueOnError)
	var spec core.RunSpec
	spec.BindFlags(fs)
	csvOut := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	if err := core.ParseFlags(fs, os.Args[1:]); err != nil {
		fatal(err)
	}
	// The whole spec is checked before any pipeline work, so a bad
	// invocation dies with one clear line instead of whatever the trace
	// generator or noise model reports downstream.
	cfg, sc, err := spec.Resolve(core.Limits{})
	if err != nil {
		fatal(err)
	}

	exp, err := core.NewExperiment(cfg)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	rep, err := exp.RunRepeated(sc, spec.Reps)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	t := report.New(fmt.Sprintf("cesim: %s on %d nodes", cfg.Workload, exp.Ranks()),
		"metric", "value")
	t.AddRow("ranks", fmt.Sprintf("%d", exp.Ranks()))
	t.AddRow("baseline-makespan", report.Nanos(exp.Baseline().Makespan))
	t.AddRow("mtbce-node", report.Nanos(sc.MTBCE))
	t.AddRow("per-event", report.Nanos(int64(sc.PerEvent.(noise.Fixed))))
	if sc.Arrivals != nil {
		t.AddRow("fault-mix", sc.Arrivals.String())
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cesim:", err)
	os.Exit(1)
}
