// tracegen generates, inspects, extrapolates and converts workload
// traces.
//
// Examples:
//
//	tracegen -list
//	tracegen -workload lulesh -nodes 125 -iters 10 -o lulesh.trace
//	tracegen -i lulesh.trace -stats
//	tracegen -i lulesh.trace -extrapolate 128 -o lulesh-16000.trace
//	tracegen -workload hpcg -nodes 64 -format text -o hpcg.txt
//	tracegen -i hpcg.txt -expand -stats
//	tracegen -fault-mix field-ddr4 -ce-events 512 -o ces.ndjson
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/collectives"
	"repro/internal/extrapolate"
	"repro/internal/report"
	"repro/internal/systems"
	"repro/internal/trace"
	"repro/internal/traceanalysis"
	"repro/internal/tracegen"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available workloads and their skeletons")
		workload = flag.String("workload", "", "workload to generate")
		nodes    = flag.Int("nodes", 128, "rank count (adjusted to decomposition constraints)")
		iters    = flag.Int("iters", 10, "main-loop iterations")
		seed     = flag.Uint64("seed", 1, "random seed")
		input    = flag.String("i", "", "read a trace file instead of generating")
		output   = flag.String("o", "", "write the trace to this file")
		format   = flag.String("format", "binary", "output format: binary or text")
		factor   = flag.Int("extrapolate", 0, "extrapolate the trace by this factor")
		expand   = flag.Bool("expand", false, "expand collectives into point-to-point schedules")
		stat     = flag.Bool("stats", false, "print trace statistics")
		analyze  = flag.Bool("analyze", false, "print CE-sensitivity analysis (collective cadence, volumes, imbalance)")
		faultMix = flag.String("fault-mix", "", "export a fault-mix CE event stream (advisor NDJSON) instead of a workload trace: preset name or JSON spec file")
		ceEvents = flag.Int("ce-events", 256, "CE events to export with -fault-mix")
		ceNodes  = flag.Int("ce-nodes", 1, "nodes to export with -fault-mix (ids 0..n-1)")
		ceMTBCE  = flag.Duration("ce-mtbce", time.Hour, "aggregate per-node MTBCE for -fault-mix when the spec carries no mtbce_ns")
		ceTenant = flag.String("ce-tenant", "tracegen", "tenant stamped on exported CE events (advisor ingest requires one)")
	)
	flag.Parse()

	if *faultMix != "" {
		if *workload != "" || *input != "" || *list {
			fatal(fmt.Errorf("tracegen: -fault-mix is a CE event export; it excludes -workload, -i and -list"))
		}
		if *ceEvents < 1 {
			fatal(fmt.Errorf("tracegen: -ce-events must be at least 1, got %d", *ceEvents))
		}
		if *ceNodes < 1 {
			fatal(fmt.Errorf("tracegen: -ce-nodes must be at least 1, got %d", *ceNodes))
		}
		if *ceMTBCE <= 0 {
			fatal(fmt.Errorf("tracegen: -ce-mtbce must be positive, got %s", *ceMTBCE))
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
		if strings.HasSuffix(*input, ".txt") {
			tr, err = trace.ReadText(f)
		} else {
			tr, err = trace.ReadBinary(f)
		}
		if err != nil {
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
		fatal(fmt.Errorf("tracegen: pass -workload, -i or -list"))
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

	if *stat {
		s := tr.ComputeStats()
		t := report.New(fmt.Sprintf("trace %s", tr.Name), "metric", "value")
		t.AddRow("ranks", fmt.Sprintf("%d", s.Ranks))
		t.AddRow("ops", fmt.Sprintf("%d", s.Ops))
		t.AddRow("sends", fmt.Sprintf("%d", s.Sends))
		t.AddRow("recvs", fmt.Sprintf("%d", s.Recvs))
		t.AddRow("collectives", fmt.Sprintf("%d", s.Collectives))
		t.AddRow("compute-total", report.Nanos(s.CalcNanos))
		t.AddRow("send-bytes", fmt.Sprintf("%d", s.Bytes))
		if err := t.WriteASCII(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *analyze {
		r, err := traceanalysis.Analyze(tr)
		if err != nil {
			fatal(err)
		}
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
		f, err := os.Create(*output)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if *format == "text" || strings.HasSuffix(*output, ".txt") {
			err = trace.WriteText(f, tr)
		} else {
			err = trace.WriteBinary(f, tr)
		}
		if err != nil {
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
		return fmt.Errorf("tracegen: -ce-tenant must not be empty")
	}
	spec, err := systems.ResolveFaultMix(arg)
	if err != nil {
		return fmt.Errorf("tracegen: %w", err)
	}
	s := spec.WithMTBCE(mtbceNanos)
	var w io.Writer = os.Stdout
	if output != "" {
		f, err := os.Create(output)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	type line struct {
		Tenant    string `json:"tenant"`
		Node      string `json:"node"`
		TimeNanos int64  `json:"ts_ns"`
		Addr      uint64 `json:"addr"`
		Bank      int    `json:"bank"`
		Syndrome  string `json:"synd"`
	}
	total := 0
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
	if output != "" {
		fmt.Fprintf(os.Stderr, "tracegen: wrote %s (%d CE events, %d nodes, mix %s)\n", output, total, nodes, s)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
