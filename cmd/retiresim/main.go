// retiresim replays a node's fault-mode mixture (internal/faultmodel)
// against a page-retirement policy and reports the effective logged-CE
// rate — connecting the fault-mode studies the paper builds on (Levy et
// al., Siddiqua et al.) to the MTBCE(node) numbers its overhead
// analysis consumes.
//
// Examples:
//
//	retiresim                                  # field-ddr4 mixture at the firmware knee, threshold 3
//	retiresim -threshold 1 -maxpages 128
//	retiresim -mtbce 432s -years 5             # a very unhealthy node
//	retiresim -sweep                           # threshold sweep table
//	retiresim -fault-mix bursty-row            # another preset, or a JSON spec file
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/report"
	"repro/internal/retire"
	"repro/internal/systems"
)

// defaultSystem supplies the default -mtbce: the 20x-Cielo end of the
// paper's firmware-logging knee.
const defaultSystem = "exascale-cielo-x20"

func main() {
	knee, err := systems.ByName(defaultSystem)
	if err != nil {
		fatal(err)
	}
	fs := flag.NewFlagSet("retiresim", flag.ContinueOnError)
	var (
		years     = fs.Float64("years", 1, "simulated span in years")
		mtbce     = fs.Duration("mtbce", time.Duration(knee.MTBCENanos()), "per-node mean time between CEs before retirement (default "+defaultSystem+"); a spec file's own mtbce_ns wins")
		threshold = fs.Int("threshold", 3, "CEs on a page before retirement (0 disables)")
		maxPages  = fs.Int("maxpages", retire.DefaultMaxPages, "page retirement budget")
		seed      = fs.Uint64("seed", 1, "random seed")
		sweep     = fs.Bool("sweep", false, "sweep retirement thresholds instead of one run")
		faultMix  = fs.String("fault-mix", "field-ddr4", "fault-mix preset name or JSON spec file")
	)
	if err := core.ParseFlags(fs, os.Args[1:]); err != nil {
		fatal(err)
	}
	// The sweep sets the threshold itself, so it refuses one given.
	if *sweep {
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "threshold" {
				fatal(fmt.Errorf("-sweep does not read -threshold"))
			}
		})
	}
	spec, err := systems.ResolveFaultMix(*faultMix)
	if err != nil {
		fatal(err)
	}
	cfg := retire.Config{
		Seed:   *seed,
		Hours:  *years * 365.25 * 24,
		Spec:   spec.WithMTBCE(int64(*mtbce)),
		Policy: retire.Policy{Threshold: *threshold, MaxPages: *maxPages},
	}

	if *sweep {
		t := report.New(fmt.Sprintf("page-retirement threshold sweep (%s, %gy)", cfg.Spec, *years),
			"threshold", "ces-logged", "suppressed", "pages-retired", "mtbce-logged")
		for _, thr := range []int{0, 1, 2, 3, 5, 10, 50} {
			cfg.Policy.Threshold = thr
			res, err := retire.Simulate(cfg)
			if err != nil {
				fatal(err)
			}
			t.AddRow(fmt.Sprintf("%d", thr),
				fmt.Sprintf("%d", res.CEsLogged),
				fmt.Sprintf("%.1f%%", res.SuppressionPct()),
				fmt.Sprintf("%d", res.PagesRetired),
				report.Nanos(res.LoggedMTBCENanos(cfg.Hours)))
		}
		if err := t.WriteASCII(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	res, err := retire.Simulate(cfg)
	if err != nil {
		fatal(err)
	}
	t := report.New(fmt.Sprintf("page retirement over %gy (threshold %d, budget %d pages)",
		*years, *threshold, *maxPages),
		"metric", "value")
	t.AddRow("fault-mix", cfg.Spec.String())
	for _, k := range faultmodel.Kinds() {
		t.AddRow("ces["+k.String()+"]", fmt.Sprintf("%d", res.CEsByKind[k]))
	}
	t.AddRow("ces-generated", fmt.Sprintf("%d", res.CEsGenerated))
	t.AddRow("ces-logged", fmt.Sprintf("%d", res.CEsLogged))
	t.AddRow("suppression", fmt.Sprintf("%.1f%%", res.SuppressionPct()))
	t.AddRow("pages-retired", fmt.Sprintf("%d", res.PagesRetired))
	t.AddRow("memory-lost", fmt.Sprintf("%dKiB", res.BytesRetired>>10))
	t.AddRow("mtbce-logged", report.Nanos(res.LoggedMTBCENanos(cfg.Hours)))
	if res.Truncated {
		t.AddRow("warning", "event stream truncated at 2^22 CEs")
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "retiresim:", err)
	os.Exit(1)
}
