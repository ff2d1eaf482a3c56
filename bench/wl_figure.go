package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/tracegen"
)

// figure_cells: the researcher's cesweep/reproduce path with no daemon.
// One op is one sequential figure-driver call restricted to one
// workload — the unit cmd/cesweep iterates and the cluster distributes.
// The engine (tracegen, collectives, loggopsim, noise, eventq, rng, and
// faultmodel/mca through Fig. 9) does all the work and the service tier
// none. Fig. 8 is left out: see README.md, Known gaps.

var (
	figureIDs    = []string{"3", "4", "5", "6", "7", "9"}
	figureScales = []struct {
		nodes int
		span  int64
	}{{32, 250e6}, {128, 125e6}}
)

const (
	figureReps     = 2
	figureRerun    = 0.05 // share of cells re-run for byte identity when there is no golden
	figureReplay   = 0.10 // share of cells the traced run replays stage by stage
	figureSmokeOps = 3
)

//go:embed testdata/figure_cells.seed1.sha256
var figureGolden string

type figureCell struct {
	fig, workload string
	nodes         int
	span          int64
}

func (c figureCell) key() string { return fmt.Sprintf("fig%s/%s/n%d", c.fig, c.workload, c.nodes) }

func (c figureCell) options(seed uint64) core.Options {
	return core.Options{
		Nodes: c.nodes, SpanNanos: c.span, Reps: figureReps, Seed: seed,
		Workloads: []string{c.workload},
	}
}

type figureCells struct {
	e      *env
	cells  []figureCell // seed-shuffled
	n      int          // timed ops; op i runs cells[i%len(cells)]
	golden map[string]string

	hashes  []string
	checked int
	replay  map[int]bool
	figs    map[int]*core.Figure            // outputs of the ops to replay
	cfgs    map[int][]core.ExperimentConfig // what each of them built
	newExp  time.Duration
	cell    time.Duration
	render  time.Duration
	rows    int
	satRows int
}

func (w *figureCells) setup(_ context.Context, e *env) error {
	w.e = e
	var all []figureCell
	for _, sc := range figureScales {
		for _, id := range figureIDs {
			for _, wl := range tracegen.Names() {
				all = append(all, figureCell{fig: id, workload: wl, nodes: sc.nodes, span: sc.span})
			}
		}
	}
	for _, i := range permute(e.seed, len(all)) {
		w.cells = append(w.cells, all[i])
	}
	w.n = e.count(len(all), figureSmokeOps)
	w.hashes = make([]string, w.n)
	w.golden = map[string]string{}
	if e.seed == 1 {
		for _, line := range strings.Split(figureGolden, "\n") {
			if f := strings.Fields(line); len(f) == 2 {
				w.golden[f[1]] = f[0]
			}
		}
	}
	w.replay = map[int]bool{}
	if e.tr != nil {
		for _, i := range sampleOps(e.seed, w.n, figureReplay) {
			w.replay[i] = true
		}
	}
	w.figs = map[int]*core.Figure{}
	w.cfgs = map[int][]core.ExperimentConfig{}
	return nil
}

func (w *figureCells) teardown()    {}
func (w *figureCells) begin()       {}
func (w *figureCells) clients() int { return 1 }

func (w *figureCells) sizes() (int, int) { return (w.n + 9) / 10, w.n }

func (w *figureCells) deadline() time.Duration { return 20 * time.Second }

// runCell is the op: one figure-driver call. On the traced run the
// Options.Experiments hook times core.NewExperiment inside it.
func (w *figureCells) runCell(tr *tracer, i int, c figureCell, record bool) (*core.Figure, time.Duration, error) {
	opts := c.options(w.e.seed)
	root := tr.begin("op", i, 0, -1)
	var built time.Duration
	if tr != nil {
		opts.Experiments = func(cfg core.ExperimentConfig) (*core.Experiment, error) {
			t := time.Now()
			exp, err := core.NewExperiment(cfg)
			d := time.Since(t)
			tr.add("core.new_experiment", i, 0, root, t, d)
			built += d
			if record && w.replay[i] {
				w.cfgs[i] = append(w.cfgs[i], cfg)
			}
			return exp, err
		}
	}
	t := time.Now()
	f, err := core.Figures()[c.fig](opts)
	d := time.Since(t)
	tr.end(root)
	if record && err == nil {
		w.newExp += built
		w.cell += d
	}
	return f, d, err
}

func figureHash(f *core.Figure) (string, time.Duration, error) {
	var buf bytes.Buffer
	t := time.Now()
	err := f.WriteJSON(&buf)
	d := time.Since(t)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), d, err
}

func (w *figureCells) do(_ context.Context, _, i int, warm bool) (time.Duration, error) {
	c := w.cells[i%len(w.cells)]
	tr := w.e.tr
	if warm {
		tr = nil
	}
	f, d, err := w.runCell(tr, i, c, !warm)
	if err != nil {
		return 0, err
	}
	if warm {
		return d, nil
	}
	hash, render, err := figureHash(f)
	if err != nil {
		return 0, err
	}
	w.e.tr.add("core.render", i, 0, -1, time.Now().Add(-render), render)
	w.render += render
	w.hashes[i] = hash
	w.rows += len(f.Rows)
	for _, r := range f.Rows {
		if r.Saturated {
			w.satRows++
		}
	}
	if w.replay[i] {
		w.figs[i] = f
	}
	if want, ok := w.golden[c.key()]; ok {
		w.checked++
		if hash != want {
			return 0, fmt.Errorf("%w: %s hashes to %s, golden %s", errMismatch, c.key(), hash, want)
		}
	}
	return d, nil
}

// verify covers the cells no golden covers: a seed-chosen sample is
// run again and must produce the same bytes.
func (w *figureCells) verify(context.Context) (int, []int, error) {
	if len(w.golden) > 0 {
		return w.checked, nil, nil
	}
	var bad []int
	sample := sampleOps(w.e.seed, w.n, figureRerun)
	for _, i := range sample {
		f, _, err := w.runCell(nil, i, w.cells[i%len(w.cells)], false)
		if err != nil {
			return 0, nil, err
		}
		hash, _, err := figureHash(f)
		if err != nil {
			return 0, nil, err
		}
		if hash != w.hashes[i] {
			bad = append(bad, i)
		}
	}
	return len(sample), bad, nil
}

// writeGolden rewrites the seed-1 golden from this run's hashes.
func (w *figureCells) writeGolden(path string) error {
	if w.n < len(w.cells) {
		return fmt.Errorf("golden needs the full matrix, ran %d of %d cells", w.n, len(w.cells))
	}
	lines := make([]string, len(w.cells))
	for i, c := range w.cells {
		lines[i] = w.hashes[i] + "  " + c.key()
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i][66:] < lines[j][66:] })
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// scenarios rebuilds the scenario behind every row of a cell's figure,
// as the figure drivers in internal/core build them.
func (c figureCell) scenarios(seed uint64, f *core.Figure) ([]core.Scenario, int, error) {
	reps := figureReps
	out := make([]core.Scenario, len(f.Rows))
	for k, row := range f.Rows {
		sc := core.Scenario{
			MTBCE: row.MTBCENanos, PerEvent: noise.Fixed(row.PerEventNanos),
			Target: noise.AllNodes, Seed: seed + 1,
		}
		switch c.fig {
		case "3":
			// Nine MTBCE points per logging mode, CEs on rank 0 only,
			// doubled repetitions.
			sc.Target = 0
			sc.Seed = seed + uint64(k%9)*1000 + 1
			reps = 2 * figureReps
		case "9":
			var burst float64
			if _, err := fmt.Sscanf(row.System, "burst=%g", &burst); err != nil {
				return nil, 0, fmt.Errorf("fig9 row label %q: %w", row.System, err)
			}
			proc, err := fig9Spec(burst, row.MTBCENanos).Process()
			if err != nil {
				return nil, 0, err
			}
			sc.Arrivals = proc
		}
		out[k] = sc
	}
	return out, reps, nil
}

func (w *figureCells) layers(_ context.Context, _ *pass, m metrics) error {
	n := float64(w.n)
	m["core.new_experiment_ms"] = ms(w.newExp) / n
	m["core.run_rows_ms"] = ms(w.cell-w.newExp) / n
	m["core.rows"] = float64(w.rows)
	m["core.saturated_rows"] = float64(w.satRows)
	m["core.render_ms"] = ms(w.render) / n

	r := &replayer{tr: w.e.tr}
	ops := make([]int, 0, len(w.figs))
	for i := range w.figs {
		ops = append(ops, i)
	}
	sort.Ints(ops)
	for _, i := range ops {
		c, f := w.cells[i%len(w.cells)], w.figs[i]
		root := w.e.tr.begin("replay", i, 0, -1)
		// One staged experiment per configuration the cell built; a row
		// names its experiment by rank count.
		exps := map[int]*stagedExp{}
		for _, cfg := range w.cfgs[i] {
			se, err := r.build(i, root, cfg)
			if err != nil {
				return err
			}
			exps[se.ranks] = se
		}
		scs, reps, err := c.scenarios(w.e.seed, f)
		if err != nil {
			return err
		}
		for k, sc := range scs {
			row := f.Rows[k]
			se := exps[row.Nodes]
			if se == nil {
				return fmt.Errorf("%w: %s row %d ran on %d ranks, no experiment of that size was built", errMismatch, c.key(), k, row.Nodes)
			}
			sample, sat, err := r.repeated(i, root, se, sc, reps)
			if err != nil {
				return err
			}
			if sample.N() != row.Reps || sat != row.SaturatedReps ||
				sample.Mean() != row.MeanPct || sample.CI95() != row.CI95Pct {
				return fmt.Errorf("%w: replay of %s row %d gives mean %v ci95 %v (%d+%d reps), the op gave %v %v (%d+%d)",
					errMismatch, c.key(), k, sample.Mean(), sample.CI95(), sample.N(), sat,
					row.MeanPct, row.CI95Pct, row.Reps, row.SaturatedReps)
			}
		}
		w.e.tr.end(root)
	}
	if err := r.fill(m); err != nil {
		return err
	}
	return faultmodelProbe(m, fig9Spec(64, 3600e6))
}

// permute returns a seed-determined permutation of [0,n).
func permute(seed uint64, n int) []int { return rng.New(seed).Perm(n) }
