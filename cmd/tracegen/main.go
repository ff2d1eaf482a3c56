// tracegen generates, inspects, extrapolates and expands workload
// traces. Trace files, read with -i and written with -o, are in the one
// text format of internal/trace (trace.WriteText, trace.ReadText).
//
// Examples:
//
//	tracegen -list
//	tracegen -workload lulesh -nodes 125 -iters 10 -o lulesh.trace
//	tracegen -i lulesh.trace -stats
//	tracegen -i lulesh.trace -extrapolate 128 -o lulesh-16000.trace
//	tracegen -i lulesh.trace -expand -stats -analyze
//	tracegen -fault-mix field-ddr4 -ce-events 512 -o ces.ndjson
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/extrapolate"
	"repro/internal/report"
	"repro/internal/systems"
	"repro/internal/trace"
	"repro/internal/traceanalysis"
	"repro/internal/tracegen"
)

func main() {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list available workloads and their skeletons")
		workload = fs.String("workload", "", "workload to generate")
		nodes    = fs.Int("nodes", 128, "rank count (adjusted to decomposition constraints)")
		iters    = fs.Int("iters", 10, "main-loop iterations")
		seed     = fs.Uint64("seed", 1, "random seed")
		input    = fs.String("i", "", "read a text trace file instead of generating")
		output   = fs.String("o", "", "write the trace to this file as text")
		factor   = fs.Int("extrapolate", 0, "extrapolate the trace by this factor")
		expand   = fs.Bool("expand", false, "expand collectives into point-to-point schedules")
		stat     = fs.Bool("stats", false, "print trace statistics")
		analyze  = fs.Bool("analyze", false, "print CE-sensitivity analysis (collective cadence, volumes, imbalance)")
		faultMix = fs.String("fault-mix", "", "export a fault-mix CE event stream (advisor NDJSON) instead of a workload trace: preset name or JSON spec file")
		ceEvents = fs.Int("ce-events", 256, "CE events to export with -fault-mix")
		ceNodes  = fs.Int("ce-nodes", 1, "nodes to export with -fault-mix (ids 0..n-1)")
		ceMTBCE  = fs.Duration("ce-mtbce", time.Hour, "aggregate per-node MTBCE for -fault-mix when the spec carries no mtbce_ns")
		ceTenant = fs.String("ce-tenant", "tracegen", "tenant stamped on exported CE events (advisor ingest requires one)")
	)
	if err := core.ParseFlags(fs, os.Args[1:]); err != nil {
		fatal(err)
	}
	if *factor < 0 {
		fatal(fmt.Errorf("-extrapolate must be at least 1, or 0 to leave the trace as is; got %d", *factor))
	}
	// The first mode that is on runs. Any flag set on the command line
	// that it does not read is refused, the other modes' own included.
	for _, mode := range []struct {
		on    bool
		reads []string // the mode's own flag first
	}{
		{*faultMix != "", []string{"fault-mix", "ce-events", "ce-nodes", "ce-mtbce", "ce-tenant", "seed", "o"}},
		{*list, []string{"list"}},
		{*input != "", []string{"i", "extrapolate", "expand", "stats", "analyze", "o"}},
		{*workload != "", []string{"workload", "nodes", "iters", "seed", "extrapolate", "expand", "stats", "analyze", "o"}},
	} {
		if !mode.on {
			continue
		}
		var unread []string
		fs.Visit(func(f *flag.Flag) {
			if !slices.Contains(mode.reads, f.Name) {
				unread = append(unread, "-"+f.Name)
			}
		})
		if len(unread) > 0 {
			fatal(fmt.Errorf("-%s does not read %s", mode.reads[0], strings.Join(unread, ", ")))
		}
		break
	}

	if *faultMix != "" {
		if *ceEvents < 1 {
			fatal(fmt.Errorf("-ce-events must be at least 1, got %d", *ceEvents))
		}
		if *ceNodes < 1 {
			fatal(fmt.Errorf("-ce-nodes must be at least 1, got %d", *ceNodes))
		}
		if *ceMTBCE <= 0 {
			fatal(fmt.Errorf("-ce-mtbce must be positive, got %s", *ceMTBCE))
		}
		if err := exportFaultMix(*faultMix, *output, *ceTenant, *ceEvents, *ceNodes, int64(*ceMTBCE), *seed); err != nil {
			fatal(err)
		}
		return
	}

	if *list {
		t := report.New("workloads (Table I)",
			"name", "dims", "stencil", "halo", "compute/iter", "allreduce-every", "dots/iter")
		for _, name := range tracegen.Names() {
			spec, err := tracegen.Lookup(name)
			if err != nil {
				fatal(err)
			}
			stencil := "faces"
			if spec.Stencil == tracegen.Full {
				stencil = "full"
			}
			every := "never"
			if spec.AllreduceEvery > 0 {
				every = fmt.Sprintf("%d", spec.AllreduceEvery)
			}
			t.AddRow(name, fmt.Sprintf("%dD", spec.Dims), stencil,
				fmt.Sprintf("%dKiB", spec.HaloBytes>>10),
				report.Nanos(spec.ComputeNs), every,
				fmt.Sprintf("%d", spec.DotsPerIter))
		}
		if err := t.WriteASCII(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	var tr *trace.Trace
	switch {
	case *input != "":
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if tr, err = trace.ReadText(f); err != nil {
			fatal(fmt.Errorf("reading %s: %w", *input, err))
		}
	case *workload != "":
		ranks := tracegen.PreferredRanks(*workload, *nodes)
		var err error
		tr, err = tracegen.Generate(*workload, ranks, *iters, *seed)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("pass -workload, -i or -list"))
	}

	if *factor > 0 {
		var err error
		tr, err = extrapolate.Extrapolate(tr, *factor)
		if err != nil {
			fatal(err)
		}
	}
	if *expand {
		var err error
		tr, err = collectives.Expand(tr, collectives.Config{})
		if err != nil {
			fatal(err)
		}
	}

	var r *traceanalysis.Report
	if *stat || *analyze {
		var err error
		if r, err = traceanalysis.Analyze(tr); err != nil {
			fatal(err)
		}
	}
	if *stat {
		t := report.New(fmt.Sprintf("trace %s", tr.Name), "metric", "value")
		t.AddRow("ranks", fmt.Sprintf("%d", r.Ranks))
		t.AddRow("ops", fmt.Sprintf("%d", r.Ops))
		t.AddRow("sends", fmt.Sprintf("%d", r.Sends))
		t.AddRow("recvs", fmt.Sprintf("%d", r.Recvs))
		t.AddRow("collectives", fmt.Sprintf("%d", r.Collectives))
		t.AddRow("compute-total", report.Nanos(r.ComputeNanos))
		t.AddRow("send-bytes", fmt.Sprintf("%d", r.SendBytes))
		if err := t.WriteASCII(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *analyze {
		t := report.New(fmt.Sprintf("analysis of %s", tr.Name), "metric", "value")
		t.AddRow("ranks", fmt.Sprintf("%d", r.Ranks))
		t.AddRow("ops", fmt.Sprintf("%d", r.Ops))
		t.AddRow("compute-mean", report.Nanos(int64(r.ComputeNanosMean)))
		t.AddRow("compute-imbalance", fmt.Sprintf("%.2f%%", r.ComputeImbalancePct))
		t.AddRow("collectives/rank", fmt.Sprintf("%d", r.CollectivesPerRank))
		t.AddRow("sync-interval", report.Nanos(r.SyncIntervalNanos))
		t.AddRow("collective-rate", fmt.Sprintf("%.2f/s", r.CollectiveRatePerSecond()))
		t.AddRow("messages/rank", fmt.Sprintf("%.1f", r.MessagesPerRank))
		t.AddRow("bytes/rank", fmt.Sprintf("%.0f", r.BytesPerRank))
		t.AddRow("mean-message", fmt.Sprintf("%.0fB", r.MeanMessageBytes))
		t.AddRow("max-message", fmt.Sprintf("%dB", r.MaxMessageBytes))
		for i, c := range r.SizeClasses {
			if c > 0 {
				t.AddRow("msgs["+traceanalysis.SizeClassLabel(i)+"]", fmt.Sprintf("%d", c))
			}
		}
		if err := t.WriteASCII(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *output != "" {
		if err := report.WriteFile(*output, func(w io.Writer) error { return trace.WriteText(w, tr) }); err != nil {
			fatal(fmt.Errorf("writing %s: %w", *output, err))
		}
		fmt.Fprintf(os.Stderr, "tracegen: wrote %s (%d ranks, %d ops)\n", *output, tr.NumRanks(), tr.NumOps())
	}
}

// exportFaultMix writes per-node CE events generated by a fault-mix
// spec as advisor-ingest NDJSON ({"node","ts_ns","addr","bank","synd"}
// lines), ready for POST /v1/advise/ingest. The syndrome field carries
// the generating mode, so classifier output can be scored against
// ground truth.
func exportFaultMix(arg, output, tenant string, events, nodes int, mtbceNanos int64, seed uint64) error {
	if tenant == "" {
		return fmt.Errorf("-ce-tenant must not be empty")
	}
	spec, err := systems.ResolveFaultMix(arg)
	if err != nil {
		return err
	}
	s := spec.WithMTBCE(mtbceNanos)
	type line struct {
		Tenant    string `json:"tenant"`
		Node      string `json:"node"`
		TimeNanos int64  `json:"ts_ns"`
		Addr      uint64 `json:"addr"`
		Bank      int    `json:"bank"`
		Syndrome  string `json:"synd"`
	}
	total := 0
	export := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for node := 0; node < nodes; node++ {
			evs, err := s.Events(seed, uint64(node), events)
			if err != nil {
				return err
			}
			for _, e := range evs {
				synd := e.Kind.String()
				if e.Transient {
					synd += "-transient"
				}
				if err := enc.Encode(line{
					Tenant:    tenant,
					Node:      fmt.Sprintf("node-%d", node),
					TimeNanos: e.TimeNanos,
					Addr:      e.Addr,
					Bank:      e.Bank,
					Syndrome:  synd,
				}); err != nil {
					return err
				}
				total++
			}
		}
		return nil
	}
	if output == "" {
		return export(os.Stdout)
	}
	if err := report.WriteFile(output, export); err != nil {
		return fmt.Errorf("writing %s: %w", output, err)
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %s (%d CE events, %d nodes, mix %s)\n", output, total, nodes, s)
	return nil
}

// fatal prints err as one "tracegen: " line and exits 1. Errors from
// internal/tracegen already carry that prefix.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", strings.TrimPrefix(err.Error(), "tracegen: "))
	os.Exit(1)
}
