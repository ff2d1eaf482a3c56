// advisor turns the paper's analysis into prescriptive guidance: given
// a machine size, workload and overhead budget, how unreliable may the
// DRAM be (minimum MTBCE per node, maximum CEs/GiB/year) under each CE
// logging mode — and, when an observed MTBCE is supplied, which mode,
// page-retirement setting and checkpoint interval to run with.
//
// This is the paper's conclusion quantified: "If Firmware First CE
// reporting is used on future systems, the MTBCE(node) for an exascale
// system should not drop below 5,544-3,024 seconds".
//
// The same policy engine powers GET /v1/advise/recommend on cesimd;
// -json emits the identical machine-readable Recommendation struct
// (docs/ADVISOR.md).
//
// Examples:
//
//	advisor -mode firmware-emca -nodes 16384 -gib 700 -budget 10
//	advisor -workload hpcg -nodes 16384 -gib 700 -mtbce 1h -fault row
//	advisor -perevent 7ms -workload lulesh -nodes 4096 -gib 512 -budget 5
//	advisor -nodes 16384 -mtbce 90m -json | jq .recommended_mode
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/advise"
	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/report"
	"repro/internal/systems"
)

func main() {
	fs := flag.NewFlagSet("advisor", flag.ContinueOnError)
	var in advise.Inputs
	fs.StringVar(&in.Workload, "workload", advise.DefaultWorkload, "workload whose synchronization cadence to assume")
	fs.IntVar(&in.Nodes, "nodes", advise.DefaultNodes, "machine size in nodes")
	fs.Float64Var(&in.GiBPerNode, "gib", advise.DefaultGiBPerNode, "DRAM GiB per node (for the CE/GiB/year conversion)")
	fs.Float64Var(&in.BudgetPct, "budget", advise.DefaultBudgetPct, "acceptable slowdown in percent")
	fs.DurationVar((*time.Duration)(&in.PerEventNanos), "perevent", 0, "explicit per-CE handling time (replaces the catalog modes)")
	fs.DurationVar((*time.Duration)(&in.ObservedMTBCENanos), "mtbce", 0, "observed per-node MTBCE (enables the recommendation, retirement and checkpoint sections)")
	var (
		mode    = fs.String("mode", "firmware-emca", "logging mode the Table II verdicts assume (hardware-only, software-cmci, firmware-emca)")
		fault   = fs.String("fault", "", "classified fault mode for retirement advice (cell, row, column, bank)")
		jsonOut = fs.Bool("json", false, "emit the machine-readable recommendation (same struct as GET /v1/advise/recommend)")
	)
	if err := core.ParseFlags(fs, os.Args[1:]); err != nil {
		fatal(err)
	}

	if err := checkNames(&in, *mode, *fault); err != nil {
		fatal(err)
	}
	// Advise validates the scenario itself (advise.Inputs.Validate)
	// before any policy work, so a typo fails fast with its message.
	rec, err := advise.Advise(in)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			fatal(err)
		}
		return
	}
	if err := render(os.Stdout, rec, *mode, in.PerEventNanos != 0); err != nil {
		fatal(err)
	}
}

// checkNames resolves the two flags that are names rather than
// scenario values: -mode must be a catalog mode unless -perevent
// replaces the catalog, and -fault, when given, is an operator-asserted
// fault mode recorded in the scenario at full confidence.
func checkNames(in *advise.Inputs, mode, fault string) error {
	if in.PerEventNanos == 0 {
		if _, err := systems.LoggingModeByName(mode); err != nil {
			return fmt.Errorf("-mode: %v", err)
		}
	}
	if fault != "" {
		kind, err := faultmodel.ParseKind(fault)
		if err != nil {
			return fmt.Errorf("-fault: %v", err)
		}
		in.FaultKnown, in.Fault, in.FaultConfidence = true, kind, 1
	}
	return nil
}

// render writes the human-readable tables. verdictMode names the
// logging mode the Table II verdict table assumes ("custom" when an
// explicit per-event cost replaced the catalog).
func render(w *os.File, rec *advise.Recommendation, verdictMode string, custom bool) error {
	t := report.New(fmt.Sprintf("advisor: %s on %d nodes, %s cadence, %.0f%% budget",
		rec.Workload, rec.Nodes, report.Nanos(rec.SyncIntervalNanos), rec.BudgetPct),
		"mode", "per-event", "min-mtbce-node", "max-ce/node/yr", "max-ce/gib/yr", "vs-cielo", "verdict")
	for _, m := range rec.Modes {
		verdict := ""
		if !m.Feasible {
			verdict = "infeasible at any CE rate"
		} else if m.Satisfied != nil {
			if *m.Satisfied {
				verdict = "observed MTBCE clears floor"
			} else {
				verdict = "observed MTBCE below floor"
			}
		}
		t.AddRow(m.Mode, report.Nanos(m.PerEventNanos), report.Nanos(m.MinMTBCENanos),
			fmt.Sprintf("%.1f", m.MaxCEPerNodeYear), fmt.Sprintf("%.2f", m.MaxCEPerGiBYear),
			fmt.Sprintf("%.1fx", m.VsCielo), verdict)
	}
	if err := t.WriteASCII(w); err != nil {
		return err
	}

	if rec.ObservedMTBCENanos > 0 {
		fmt.Fprintf(w, "\nobserved MTBCE %s -> recommended mode: %s\n",
			report.Nanos(rec.ObservedMTBCENanos), rec.RecommendedMode)
		if r := rec.Retirement; r != nil {
			fmt.Fprintf(w, "page retirement: worth=%t (%s)\n", r.Worth, r.Reason)
		}
		if c := rec.Checkpoint; c != nil {
			fmt.Fprintf(w, "checkpointing: system MTBF %s -> Daly interval %s (overhead %.1f%%)\n",
				report.Nanos(c.SystemMTBFNanos), report.Nanos(c.DalyNanos), c.OverheadPct)
		}
	}

	if custom {
		verdictMode = "custom"
	}
	var floor int64
	feasible := false
	for _, m := range rec.Modes {
		if m.Mode == verdictMode {
			floor, feasible = m.MinMTBCENanos, m.Feasible
		}
	}
	fmt.Fprintln(w)
	t2 := report.New(fmt.Sprintf("Table II systems against the %s requirement", verdictMode),
		"system", "mtbce-node", "verdict")
	mtbceSec := float64(floor) / 1e9
	for _, s := range systems.Simulated() {
		verdict := "OK"
		switch {
		case !feasible:
			verdict = "infeasible mode"
		case s.MTBCESeconds < mtbceSec:
			verdict = fmt.Sprintf("exceeds budget (needs >= %.0fs)", mtbceSec)
		}
		t2.AddRow(s.Name, fmt.Sprintf("%.1fs", s.MTBCESeconds), verdict)
	}
	return t2.WriteASCII(w)
}

func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "advisor: ") {
		msg = "advisor: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
