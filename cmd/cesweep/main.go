// cesweep regenerates the paper's evaluation tables and figures.
//
// Examples:
//
//	cesweep -table 2                 # Table II catalog
//	cesweep -figure 2                # node-level noise signatures
//	cesweep -figure 5                # exascale projections, reduced scale
//	cesweep -figure 5 -scale paper   # figure-fidelity node counts (slow)
//	cesweep -figure 3 -workloads lulesh,hpcg -nodes 1024 -reps 8 -csv
//
// With -cluster, the figure sweep is sharded across a cesimd worker
// fleet (see docs/CLUSTER.md); the merged output is bit-identical to a
// local run with the same options:
//
//	cesweep -figure 5 -cluster http://coordinator:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	var (
		figure    = flag.String("figure", "", "figure to regenerate: 2, 3, 4, 5, 6, 7, 8 or 9")
		table     = flag.String("table", "", "table to regenerate: 2")
		surface   = flag.String("surface", "", "workload for a full (MTBCE x duration) overhead surface (Fig. 7 generalization)")
		scale     = flag.String("scale", "reduced", "reduced (scale-compensated) or paper (Table II node counts)")
		nodes     = flag.Int("nodes", 0, "reduced-scale node count override")
		iters     = flag.Int("iters", 0, "main-loop iterations override")
		reps      = flag.Int("reps", 0, "repetitions per configuration override")
		seed      = flag.Uint64("seed", 1, "base random seed")
		workloads = flag.String("workloads", "", "comma-separated workload subset")
		csvOut    = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		jsonOut   = flag.Bool("json", false, "emit JSON instead of an aligned table (figures only)")
		clusterAt = flag.String("cluster", "", "coordinator URL: run the figure sweep on a cesimd cluster (figures 3-9)")
	)
	flag.Parse()

	selected := 0
	for _, s := range []string{*figure, *table, *surface} {
		if s != "" {
			selected++
		}
	}
	if selected != 1 {
		fatal(fmt.Errorf("cesweep: pass exactly one of -figure, -table or -surface"))
	}
	sc, err := core.ParseScale(*scale)
	if err != nil {
		fatal(fmt.Errorf("cesweep: %w", err))
	}

	// Only the sweep figures (3-9) shard into (figure x workload) cells;
	// Table II, Figure 2 and surfaces are single local computations.
	if *clusterAt != "" && *figure == "" {
		fatal(fmt.Errorf("cesweep: -cluster only applies to -figure sweeps"))
	}
	if *clusterAt != "" && *figure == "2" {
		fatal(fmt.Errorf("cesweep: figure 2 is a single local run; -cluster needs figures 3-9"))
	}

	if *table != "" {
		if *table != "2" {
			fatal(fmt.Errorf("cesweep: unknown table %q (only Table II is reproducible)", *table))
		}
		write(core.Table2(), *csvOut)
		return
	}

	if *surface != "" {
		opts := core.Options{Scale: sc, Nodes: *nodes, Iterations: *iters, Reps: *reps, Seed: *seed}
		f, hm, err := core.Surface(opts, *surface, nil, nil)
		if err != nil {
			fatal(err)
		}
		if *csvOut {
			write(f.Table(), true)
			return
		}
		if *jsonOut {
			if err := f.WriteJSON(os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
		if err := hm.Render(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	if *figure == "2" {
		_, t, err := core.Figure2(*seed)
		if err != nil {
			fatal(err)
		}
		write(t, *csvOut)
		return
	}

	driver, ok := core.Figures()[*figure]
	if !ok {
		fatal(fmt.Errorf("cesweep: unknown figure %q", *figure))
	}
	opts := core.Options{
		Scale:      sc,
		Nodes:      *nodes,
		Iterations: *iters,
		Reps:       *reps,
		Seed:       *seed,
	}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}
	start := time.Now()
	var f *core.Figure
	if *clusterAt != "" {
		client := &cluster.Client{Base: *clusterAt}
		f, err = client.Figure(context.Background(), *figure, opts)
	} else {
		f, err = driver(opts)
	}
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		if err := f.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	write(f.Table(), *csvOut)
	fmt.Fprintf(os.Stderr, "cesweep: figure %s, %d rows in %s\n",
		*figure, len(f.Rows), time.Since(start).Truncate(time.Millisecond))
}

func write(t *report.Table, csv bool) {
	var err error
	if csv {
		err = t.WriteCSV(os.Stdout)
	} else {
		err = t.WriteASCII(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
