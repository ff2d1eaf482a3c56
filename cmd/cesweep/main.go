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
//
// -scale, -nodes, -iters, -reps, -seed and -workloads fill a
// core.Options, the same sweep spec POST /v1/sweep takes; its field
// table is in docs/SERVICE.md.
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
	fs := flag.NewFlagSet("cesweep", flag.ContinueOnError)
	var opts core.Options
	opts.BindFlags(fs)
	var (
		figure    = fs.String("figure", "", "figure to regenerate: 2, 3, 4, 5, 6, 7, 8 or 9")
		table     = fs.String("table", "", "table to regenerate: 2")
		surface   = fs.String("surface", "", "workload for a full (MTBCE x duration) overhead surface (Fig. 7 generalization)")
		csvOut    = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		jsonOut   = fs.Bool("json", false, "emit JSON instead of an aligned table (figures only)")
		clusterAt = fs.String("cluster", "", "coordinator URL: run the figure sweep on a cesimd cluster (figures 3-9)")
	)
	fs.Func("workloads", "comma-separated workload subset", func(list string) error {
		opts.Workloads = strings.Split(list, ",")
		return nil
	})
	if err := core.ParseFlags(fs, os.Args[1:]); err != nil {
		fatal(err)
	}

	selected := 0
	for _, s := range []string{*figure, *table, *surface} {
		if s != "" {
			selected++
		}
	}
	if selected != 1 {
		fatal(fmt.Errorf("pass exactly one of -figure, -table or -surface"))
	}
	// Figure 2 is a single local run, not a sweep figure; everything
	// else about the spec is checked before any mode starts.
	if *figure != "2" {
		opts.Figure = *figure
	}
	if err := opts.Validate(core.Limits{}); err != nil {
		fatal(err)
	}

	// Only the sweep figures (3-9) shard into (figure x workload) cells;
	// Table II, Figure 2 and surfaces are single local computations.
	if *clusterAt != "" && *figure == "" {
		fatal(fmt.Errorf("-cluster only applies to -figure sweeps"))
	}
	if *clusterAt != "" && *figure == "2" {
		fatal(fmt.Errorf("figure 2 is a single local run; -cluster needs figures 3-9"))
	}

	if *table != "" {
		if *table != "2" {
			fatal(fmt.Errorf("unknown table %q (only Table II is reproducible)", *table))
		}
		write(core.Table2(), *csvOut)
		return
	}

	if *surface != "" {
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
		_, t, err := core.Figure2(opts.Seed)
		if err != nil {
			fatal(err)
		}
		write(t, *csvOut)
		return
	}

	start := time.Now()
	var f *core.Figure
	var err error
	if *clusterAt != "" {
		client := &cluster.Client{Base: *clusterAt}
		f, err = client.Figure(context.Background(), opts.Figure, opts)
	} else {
		f, err = core.RunFigure(context.Background(), opts.Figure, opts)
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
		opts.Figure, len(f.Rows), time.Since(start).Truncate(time.Millisecond))
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
	fmt.Fprintln(os.Stderr, "cesweep:", err)
	os.Exit(1)
}
