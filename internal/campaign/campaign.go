// Package campaign orchestrates full reproduction runs: every table
// and figure regenerated into an output directory in aligned-text, CSV
// and JSON forms, with a manifest recording row counts and wall times.
// cmd/reproduce is a thin flag wrapper around this package.
package campaign

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/report"
)

// FigureRunner produces one sweep figure (ids "3".."9"). The default
// runs the in-process core driver; `cesweep -cluster` installs a
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
	// Options are passed to every figure driver.
	Options core.Options
	// Only restricts the run to these figure ids ("2".."9"); empty
	// means everything. Table II is always produced (it is free).
	Only []string
	// Log receives progress lines; nil discards them.
	Log io.Writer
	// Now supplies timestamps for the manifest; nil uses time.Now
	// (injectable for deterministic tests).
	Now func() time.Time
	// Runner executes the sweep figures ("3".."9"); nil runs the
	// in-process drivers. Figure 2 (the MCA noise signatures) is always
	// produced locally — it is a single cheap run, not a sweep.
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

// Run executes the campaign. It is RunContext with a background
// context, kept for existing callers.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the campaign, checking ctx between artifacts so
// a serving layer (e.g. a future cesimd /v1/reproduce job) can cancel
// a long reproduction; the artifacts finished before cancellation stay
// on disk.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.OutDir == "" {
		return nil, fmt.Errorf("campaign: output directory required")
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	logf := func(format string, args ...interface{}) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	selected := map[string]bool{}
	for _, id := range cfg.Only {
		selected[strings.TrimSpace(id)] = true
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	res := &Result{Manifest: report.New(
		fmt.Sprintf("reproduction manifest (seed %d)", cfg.Options.Seed),
		"artifact", "rows", "wall-time", "files")}
	add := func(a Artifact) {
		res.Artifacts = append(res.Artifacts, a)
		res.Manifest.AddRow(a.Name, fmt.Sprintf("%d", a.Rows),
			a.Wall.Truncate(time.Millisecond).String(), strings.Join(a.Files, ","))
		logf("campaign: %s done in %s (%d rows)", a.Name, a.Wall.Truncate(time.Millisecond), a.Rows)
	}

	start := now()
	table2 := core.Table2()
	if err := WriteTable(cfg.OutDir, "table2", table2); err != nil {
		return nil, err
	}
	add(Artifact{Name: "table2", Rows: len(table2.Rows), Wall: now().Sub(start),
		Files: []string{"table2.txt", "table2.csv"}})

	if want("2") {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start = now()
		_, t, err := core.Figure2(cfg.Options.Seed)
		if err != nil {
			return nil, err
		}
		if err := WriteTable(cfg.OutDir, "fig2", t); err != nil {
			return nil, err
		}
		add(Artifact{Name: "fig2", Rows: len(t.Rows), Wall: now().Sub(start),
			Files: []string{"fig2.txt", "fig2.csv"}})
	}

	for _, id := range core.FigureIDs() {
		if !want(id) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start = now()
		var f *core.Figure
		var err error
		if cfg.Runner != nil {
			f, err = cfg.Runner.Figure(ctx, id, cfg.Options)
		} else {
			f, err = core.RunFigure(ctx, id, cfg.Options)
		}
		if err != nil {
			return nil, fmt.Errorf("campaign: figure %s: %w", id, err)
		}
		name := "fig" + id
		if err := WriteFigure(cfg.OutDir, name, f); err != nil {
			return nil, err
		}
		add(Artifact{Name: name, Rows: len(f.Rows), Wall: now().Sub(start),
			Files: []string{name + ".txt", name + ".csv", name + ".json"}})
	}

	mf, err := os.Create(filepath.Join(cfg.OutDir, "MANIFEST.txt"))
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	if err := res.Manifest.WriteASCII(mf); err != nil {
		return nil, err
	}
	return res, nil
}

// WriteTable stores a table as <name>.txt and <name>.csv in dir.
func WriteTable(dir, name string, t *report.Table) error {
	txt, err := os.Create(filepath.Join(dir, name+".txt"))
	if err != nil {
		return err
	}
	defer txt.Close()
	if err := t.WriteASCII(txt); err != nil {
		return err
	}
	csv, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer csv.Close()
	return t.WriteCSV(csv)
}

// WriteFigure stores a figure as .txt, .csv and .json in dir.
func WriteFigure(dir, name string, f *core.Figure) error {
	if err := WriteTable(dir, name, f.Table()); err != nil {
		return err
	}
	js, err := os.Create(filepath.Join(dir, name+".json"))
	if err != nil {
		return err
	}
	defer js.Close()
	return f.WriteJSON(js)
}
