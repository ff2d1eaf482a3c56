// reproduce regenerates the entire evaluation — Table II and
// Figures 2 through 9 — into an output directory, with each result in
// aligned-text, CSV and JSON forms plus a manifest recording scales,
// seeds and wall times.
//
//	reproduce -out results                  # reduced scale, ~minutes
//	reproduce -out results -scale paper     # Table II node counts, hours
//	reproduce -out results -only 5,7        # a subset of figures
//
// -scale, -nodes, -iters, -reps and -seed fill the core.Options every
// figure runs under; its field table is in docs/SERVICE.md.
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
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	cfg := campaign.Config{Log: os.Stderr}
	cfg.Options.BindFlags(fs)
	fs.StringVar(&cfg.OutDir, "out", "results", "output directory")
	only := fs.String("only", "", "comma-separated subset of {2,3,4,5,6,7,8,9}")
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
	fmt.Fprintln(os.Stderr, "reproduce:", err)
	os.Exit(1)
}
