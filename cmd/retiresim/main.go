// retiresim simulates DRAM fault populations against a page-retirement
// policy and reports the effective logged-CE rate — connecting the
// fault-mode studies the paper builds on (Levy et al., Siddiqua et al.)
// to the MTBCE(node) numbers its overhead analysis consumes.
//
// Examples:
//
//	retiresim                                  # default Cielo-like mix, threshold 3
//	retiresim -threshold 1 -maxpages 128
//	retiresim -faults 60 -cerate 2.5 -years 5  # a very unhealthy node
//	retiresim -sweep                           # threshold sweep table
//	retiresim -fault-mix field-ddr4            # weights from a faultmodel preset
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/faultmodel"
	"repro/internal/report"
	"repro/internal/retire"
	"repro/internal/systems"
)

func main() {
	var (
		years     = flag.Float64("years", 1, "simulated span in years")
		faults    = flag.Float64("faults", 6, "fault arrivals per node per year")
		ceRate    = flag.Float64("cerate", 0.5, "mean CEs per fault per hour")
		threshold = flag.Int("threshold", 3, "CEs on a page before retirement (0 disables)")
		maxPages  = flag.Int("maxpages", 64, "page retirement budget")
		seed      = flag.Uint64("seed", 1, "random seed")
		sweep     = flag.Bool("sweep", false, "sweep retirement thresholds instead of one run")
		faultMix  = flag.String("fault-mix", "", "fault-mix preset name or JSON spec file; its mode weights replace the Cielo-like mix")
	)
	flag.Parse()

	hours := *years * 365.25 * 24
	base := retire.Config{
		Seed:            *seed,
		Hours:           hours,
		FaultsPerYear:   *faults,
		CEsPerFaultHour: *ceRate,
	}
	if *faultMix != "" {
		spec, err := systems.ResolveFaultMix(*faultMix)
		if err != nil {
			fatal(err)
		}
		mix, err := mixFromSpec(spec)
		if err != nil {
			fatal(err)
		}
		base.Mix = mix
	}

	if *sweep {
		t := report.New(fmt.Sprintf("page-retirement threshold sweep (%.1f faults/yr, %.2f CE/fault/hr, %gy)",
			*faults, *ceRate, *years),
			"threshold", "ces-logged", "suppressed", "pages-retired", "mtbce-logged")
		for _, thr := range []int{0, 1, 2, 3, 5, 10, 50} {
			cfg := base
			cfg.Policy = retire.Policy{Threshold: thr, MaxPages: *maxPages}
			res, err := retire.Simulate(cfg)
			if err != nil {
				fatal(err)
			}
			t.AddRow(fmt.Sprintf("%d", thr),
				fmt.Sprintf("%d", res.CEsLogged),
				fmt.Sprintf("%.1f%%", res.SuppressionPct()),
				fmt.Sprintf("%d", res.PagesRetired),
				report.Nanos(res.LoggedMTBCENanos(hours)))
		}
		if err := t.WriteASCII(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	cfg := base
	cfg.Policy = retire.Policy{Threshold: *threshold, MaxPages: *maxPages}
	res, err := retire.Simulate(cfg)
	if err != nil {
		fatal(err)
	}
	t := report.New(fmt.Sprintf("page retirement over %gy (threshold %d, budget %d pages)",
		*years, *threshold, *maxPages),
		"metric", "value")
	for k := retire.FaultCell; k <= retire.FaultBank; k++ {
		t.AddRow("faults["+k.String()+"]", fmt.Sprintf("%d", res.Faults[k]))
	}
	t.AddRow("ces-generated", fmt.Sprintf("%d", res.CEsGenerated))
	t.AddRow("ces-logged", fmt.Sprintf("%d", res.CEsLogged))
	t.AddRow("suppression", fmt.Sprintf("%.1f%%", res.SuppressionPct()))
	t.AddRow("pages-retired", fmt.Sprintf("%d", res.PagesRetired))
	t.AddRow("memory-lost", fmt.Sprintf("%dKiB", res.BytesRetired>>10))
	t.AddRow("mtbce-logged", report.Nanos(res.LoggedMTBCENanos(hours)))
	if res.Truncated {
		t.AddRow("warning", "event stream truncated (MaxCEs)")
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		fatal(err)
	}
}

// mixFromSpec folds a faultmodel mixture onto retire's per-kind weights:
// transient and permanent modes of the same kind sum. The burst shape
// and skew of the mixture do not map onto retire's fault-population
// model, so only the composition carries over.
func mixFromSpec(spec faultmodel.Spec) (retire.Mix, error) {
	var mix retire.Mix
	if err := spec.Validate(); err != nil {
		return mix, err
	}
	for _, m := range spec.Modes {
		kind, err := retire.ParseKind(m.Kind)
		if err != nil {
			return mix, err
		}
		mix[kind] += m.Weight
	}
	return mix, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
