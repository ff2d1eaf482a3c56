// reproduce regenerates the entire evaluation — Table II, Figures 2
// through 9, the overhead surfaces that generalize Fig. 7 and the scale
// and ablation studies DESIGN.md §6 cites — into an output directory,
// with each result in aligned-text and CSV (and, for figures and
// surfaces, JSON) forms plus a manifest recording seeds and wall times.
//
//	reproduce -out results                     # reduced scale: 512 nodes, 3 reps
//	reproduce -out results -nodes 128 -reps 2  # a quicker reduced run
//	reproduce -out results -scale paper        # Table II node counts, hours
//	reproduce -out results -only 5,7           # a subset of figures
//	reproduce -out results -only 3 -workloads lulesh,hpcg -nodes 1024 -reps 8
//	reproduce -out results -only surface -workloads minife
//	reproduce -out results -only ablation-noise-seeds
//
// With -cluster, Figures 3-9 are sharded across a cesimd worker fleet
// (see docs/CLUSTER.md); everything else still runs locally and the
// output directory is byte-identical to a local run:
//
//	reproduce -out results -only 5 -cluster http://coordinator:8080
//
// -scale, -nodes, -iters, -reps, -seed and -workloads fill the
// core.Options every figure and surface runs under (Fig. 2 and the
// studies read only -seed); its field table is in docs/SERVICE.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
)

func main() {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	cfg := campaign.Config{Log: os.Stderr}
	cfg.Options.BindFlags(fs)
	fs.StringVar(&cfg.OutDir, "out", "results", "output directory")
	only := fs.String("only", "", "comma-separated subset of figure ids {2,...,9}, surface and study names")
	atURL := fs.String("cluster", "", "coordinator URL: run the sweep figures on a cesimd cluster")
	if err := core.ParseFlags(fs, os.Args[1:]); err != nil {
		fatal(err)
	}
	if err := cfg.Options.Validate(core.Limits{}); err != nil {
		fatal(err)
	}
	if *only != "" {
		cfg.Only = strings.Split(*only, ",")
	}
	if *atURL != "" {
		cfg.Runner = &cluster.Client{Base: *atURL}
	}
	res, err := campaign.RunContext(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}
	if err := res.Manifest.WriteASCII(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reproduce:", err)
	os.Exit(1)
}
