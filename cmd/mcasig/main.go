// mcasig reproduces the paper's Fig. 2: the node-level OS noise
// signature of correctable-error injection under each logging mode.
//
// Examples:
//
//	mcasig -mode native                 # Fig. 2a
//	mcasig -mode dryrun                 # Fig. 2b
//	mcasig -mode software               # Fig. 2c
//	mcasig -mode firmware -duration 4m  # Fig. 2d
//	mcasig -mode firmware -detours      # dump the (time, duration) series
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mca"
	"repro/internal/report"
)

func main() {
	fs := flag.NewFlagSet("mcasig", flag.ContinueOnError)
	var (
		modeName = fs.String("mode", "native", "native, dryrun, correction-only, software or firmware")
		duration = fs.Duration("duration", 2*time.Minute, "measurement window")
		period   = fs.Duration("period", 10*time.Second, "EINJ injection period")
		cores    = fs.Int("cores", 48, "cores running the selfish detector")
		seed     = fs.Uint64("seed", 1, "random seed")
		detours  = fs.Bool("detours", false, "dump every detour (time_us dur_us core source)")
		plot     = fs.Bool("plot", false, "render the detour series as an ASCII scatter plot (log y), like Fig. 2")
		oneCore  = fs.Int("core", -1, "restrict -detours to one core")
	)
	if err := core.ParseFlags(fs, os.Args[1:]); err != nil {
		fatal(err)
	}
	// mca.Config turns a zero into its default, so a zero must be
	// refused here or the report would name a run it did not measure.
	mode, err := mca.ParseMode(*modeName)
	switch {
	case err != nil:
		err = fmt.Errorf("-mode %q is not one of native, dryrun, correction-only, software, firmware", *modeName)
	case *cores < 1:
		err = fmt.Errorf("-cores must be at least 1, got %d", *cores)
	case *duration <= 0:
		err = fmt.Errorf("-duration must be positive, got %s", *duration)
	case *period <= 0:
		err = fmt.Errorf("-period must be positive, got %s", *period)
	case *oneCore < -1 || *oneCore >= *cores:
		err = fmt.Errorf("-core %d is not a core of -cores %d (0..%d, or -1 for all)", *oneCore, *cores, *cores-1)
	}
	if err != nil {
		fatal(err)
	}
	sig, err := mca.Run(mca.Config{
		Seed:         *seed,
		Mode:         mode,
		Cores:        *cores,
		Duration:     int64(*duration),
		InjectPeriod: int64(*period),
	})
	if err != nil {
		fatal(err)
	}

	if *plot {
		var xs, ys []float64
		for _, d := range sig.Detours {
			if *oneCore >= 0 && d.Core != int32(*oneCore) {
				continue
			}
			xs = append(xs, float64(d.Start)/1e9) // seconds
			ys = append(ys, float64(d.Dur)/1000)  // microseconds
		}
		fmt.Printf("# %s noise signature (x: seconds, y: detour us, log scale)\n", mode)
		if err := report.Scatter(os.Stdout, xs, ys, report.ScatterOpts{
			LogY: true, XLabel: "time [s]", YLabel: "detour [us]",
		}); err != nil {
			fatal(err)
		}
		return
	}

	if *detours {
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		fmt.Fprintln(w, "# time_us dur_us core source")
		for _, d := range sig.Detours {
			if *oneCore >= 0 && d.Core != int32(*oneCore) {
				continue
			}
			fmt.Fprintf(w, "%.3f %.3f %d %s\n",
				float64(d.Start)/1000, float64(d.Dur)/1000, d.Core, d.Source)
		}
		return
	}

	st := sig.ComputeStats()
	perEvent, events := sig.PerEventCost()
	t := report.New(fmt.Sprintf("mcasig: %s signature over %s on %d cores", mode, *duration, *cores),
		"metric", "value")
	t.AddRow("detours", fmt.Sprintf("%d", st.Count))
	t.AddRow("max-detour", report.Nanos(st.MaxDur))
	t.AddRow("mean-detour", report.Nanos(int64(st.MeanDur)))
	t.AddRow("total-steal", report.Nanos(st.TotalDur))
	t.AddRow("noise", fmt.Sprintf("%.4f%%", st.NoisePct))
	if events > 0 {
		t.AddRow("per-event-cost", report.Nanos(int64(perEvent)))
		t.AddRow("ce-events", fmt.Sprintf("%d", events))
	}
	bySource := sig.MaxDetoursBySource()
	srcs := make([]mca.Source, 0, len(bySource))
	for src := range bySource {
		srcs = append(srcs, src)
	}
	slices.SortFunc(srcs, func(a, b mca.Source) int { return strings.Compare(a.String(), b.String()) })
	for _, src := range srcs {
		t.AddRow("max["+src.String()+"]", report.Nanos(bySource[src]))
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcasig:", err)
	os.Exit(1)
}
