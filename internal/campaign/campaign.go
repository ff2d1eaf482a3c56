// Package campaign is the one regenerator of the paper's evaluation:
// every table, figure, overhead surface and scale or ablation study
// written into an output directory as aligned text and CSV (figures and
// surfaces also as JSON), with a manifest of row counts and wall times.
// cmd/reproduce wraps it.
package campaign

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/tracegen"
)

// FigureRunner produces one sweep figure (ids "3".."9"). The default
// runs the in-process core driver; `reproduce -cluster` installs a
// cluster.Client instead, so the sweep executes on a worker fleet
// while the artifact-writing path below stays exactly the same — which
// is what makes distributed output directories byte-comparable to
// local ones.
type FigureRunner interface {
	Figure(ctx context.Context, id string, opts core.Options) (*core.Figure, error)
}

// Config selects what to run and where results land.
type Config struct {
	// OutDir receives all artifacts; created if missing.
	OutDir string
	// Options are passed to every figure driver and surface.
	Options core.Options
	// Only restricts the run to these figure ids ("2".."9"), "surface"
	// and study names; empty means everything, an unknown id fails the
	// run before anything is written. Table II is always produced (it is
	// free).
	Only []string
	// Log receives progress lines; nil discards them.
	Log io.Writer
	// Runner executes the sweep figures ("3".."9"); nil runs the
	// in-process drivers. Figure 2, the surfaces and the studies always
	// run locally: they are fixed runs, not sweeps.
	Runner FigureRunner
}

// Artifact describes one produced result.
type Artifact struct {
	Name  string
	Rows  int
	Wall  time.Duration
	Files []string
}

// Result summarizes a campaign.
type Result struct {
	Artifacts []Artifact
	// Manifest is the rendered manifest table (also written to
	// OutDir/MANIFEST.txt).
	Manifest *report.Table
}

// RunContext executes the campaign, checking ctx between artifacts so
// a serving layer (e.g. a future cesimd /v1/reproduce job) can cancel
// a long reproduction; the artifacts finished before cancellation stay
// on disk. The sweep figures, surfaces and studies also observe ctx
// between repetitions; Figure 2, once started, runs to the end.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.OutDir == "" {
		return nil, fmt.Errorf("campaign: output directory required")
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	known := append([]string{"2"}, core.FigureIDs()...)
	known = append(known, "surface")
	for _, s := range studies {
		known = append(known, s.name)
	}
	selected := map[string]bool{}
	for _, id := range cfg.Only {
		id = strings.TrimSpace(id)
		if !slices.Contains(known, id) {
			return nil, fmt.Errorf("campaign: unknown artifact %q (want one of %s)", id, strings.Join(known, ", "))
		}
		selected[id] = true
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}

	res := &Result{Manifest: report.New(
		fmt.Sprintf("reproduction manifest (seed %d)", cfg.Options.Seed),
		"artifact", "rows", "wall-time", "files")}
	// produce runs one artifact: run computes it and writes its files
	// into cfg.OutDir, returning its row count and file names.
	produce := func(name string, run func() (rows int, files []string, err error)) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		rows, files, err := run()
		if err != nil {
			return fmt.Errorf("campaign: %s: %w", name, err)
		}
		a := Artifact{Name: name, Rows: rows, Wall: time.Since(start), Files: files}
		res.Artifacts = append(res.Artifacts, a)
		wall := a.Wall.Truncate(time.Millisecond)
		res.Manifest.AddRow(a.Name, fmt.Sprintf("%d", a.Rows), wall.String(), strings.Join(a.Files, ","))
		fmt.Fprintf(cfg.Log, "campaign: %s done in %s (%d rows)\n", a.Name, wall, a.Rows)
		return nil
	}
	table := func(name string, run func(context.Context, core.Options) (*report.Table, error)) error {
		return produce(name, func() (int, []string, error) {
			t, err := run(ctx, cfg.Options)
			if err != nil {
				return 0, nil, err
			}
			files, err := write(cfg.OutDir, name, t.WriteASCII, t.WriteCSV, nil)
			return len(t.Rows), files, err
		})
	}

	if err := table("table2", func(context.Context, core.Options) (*report.Table, error) {
		return core.Table2(), nil
	}); err != nil {
		return nil, err
	}
	if want("2") {
		if err := table("fig2", func(_ context.Context, o core.Options) (*report.Table, error) {
			_, t, err := core.Figure2(o.Seed)
			return t, err
		}); err != nil {
			return nil, err
		}
	}

	figure := core.RunFigure
	if cfg.Runner != nil {
		figure = cfg.Runner.Figure
	}
	for _, id := range core.FigureIDs() {
		if !want(id) {
			continue
		}
		name := "fig" + id
		if err := produce(name, func() (int, []string, error) {
			f, err := figure(ctx, id, cfg.Options)
			if err != nil {
				return 0, nil, err
			}
			t := f.Table()
			files, err := write(cfg.OutDir, name, t.WriteASCII, t.WriteCSV, f.WriteJSON)
			return len(f.Rows), files, err
		}); err != nil {
			return nil, err
		}
	}

	if want("surface") {
		workloads := cfg.Options.Workloads
		if len(workloads) == 0 {
			workloads = tracegen.Names()
		}
		for _, wl := range workloads {
			name := "surface-" + wl
			if err := produce(name, func() (int, []string, error) {
				f, hm, err := core.Surface(ctx, cfg.Options, wl, nil, nil)
				if err != nil {
					return 0, nil, err
				}
				files, err := write(cfg.OutDir, name, hm.Render, f.Table().WriteCSV, f.WriteJSON)
				return len(f.Rows), files, err
			}); err != nil {
				return nil, err
			}
		}
	}

	for _, s := range studies {
		if want(s.name) {
			if err := table(s.name, s.run); err != nil {
				return nil, err
			}
		}
	}

	if err := report.WriteFile(filepath.Join(cfg.OutDir, "MANIFEST.txt"), res.Manifest.WriteASCII); err != nil {
		return nil, err
	}
	return res, nil
}

// write stores one artifact in dir as <name>.txt and <name>.csv and,
// when js is non-nil, <name>.json, and returns the file names.
func write(dir, name string, txt, csv, js func(io.Writer) error) ([]string, error) {
	forms := []struct {
		ext   string
		write func(io.Writer) error
	}{{".txt", txt}, {".csv", csv}, {".json", js}}
	var files []string
	for _, f := range forms {
		if f.write == nil {
			continue
		}
		if err := report.WriteFile(filepath.Join(dir, name+f.ext), f.write); err != nil {
			return nil, err
		}
		files = append(files, name+f.ext)
	}
	return files, nil
}
