// reproduce regenerates the paper's entire evaluation — Table II and
// Figures 2 through 7 — into an output directory, with each result in
// aligned-text, CSV and JSON forms plus a manifest recording scales,
// seeds and wall times.
//
//	reproduce -out results                  # reduced scale, ~minutes
//	reproduce -out results -scale paper     # Table II node counts, hours
//	reproduce -out results -only 5,7        # a subset of figures
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
)

func main() {
	var (
		out   = flag.String("out", "results", "output directory")
		scale = flag.String("scale", "reduced", "reduced or paper")
		nodes = flag.Int("nodes", 0, "reduced-scale node count override")
		iters = flag.Int("iters", 0, "iterations override")
		reps  = flag.Int("reps", 0, "repetitions override")
		seed  = flag.Uint64("seed", 1, "base seed")
		only  = flag.String("only", "", "comma-separated subset of {2,3,4,5,6,7}")
		atURL = flag.String("cluster", "", "coordinator URL: run the sweep figures on a cesimd cluster")
	)
	flag.Parse()

	sc, err := core.ParseScale(*scale)
	if err != nil {
		fatal(fmt.Errorf("reproduce: %w", err))
	}
	opts := core.Options{Scale: sc, Nodes: *nodes, Iterations: *iters, Reps: *reps, Seed: *seed}
	cfg := campaign.Config{OutDir: *out, Options: opts, Log: os.Stderr}
	if *only != "" {
		cfg.Only = strings.Split(*only, ",")
	}
	if *atURL != "" {
		// Figures 3-9 shard across the cluster; Table II and Figure 2
		// still run locally. Output stays byte-identical either way.
		cfg.Runner = &cluster.Client{Base: *atURL}
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := res.Manifest.WriteASCII(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
