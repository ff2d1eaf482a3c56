package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/faultmodel"
	"repro/internal/mca"
	"repro/internal/noise"
	"repro/internal/report"
	"repro/internal/systems"
	"repro/internal/tracegen"
)

const (
	nsPerUs = int64(1000)
	nsPerMs = int64(1000 * 1000)
	nsPerS  = int64(1000 * 1000 * 1000)
)

// Scale selects between figure-fidelity and tractable runs.
type Scale int

// Scales.
const (
	// Reduced runs each figure on a small node count with the per-node
	// CE rate scaled up so the *aggregate* CE rate matches the paper's
	// system ("scale compensation"). First-order overheads — the
	// product of aggregate CE rate and per-event cost serialized
	// through collectives — are preserved; collective depth (log2 of
	// the rank count) is the main second-order difference.
	Reduced Scale = iota
	// Paper runs the figure at the paper's simulated node counts
	// (Table II). Expect minutes to hours per figure.
	Paper
)

// ParseScale maps the scale name every command-line flag and request
// body uses to a Scale: "" and "reduced" are Reduced, "paper" is Paper.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "", "reduced":
		return Reduced, nil
	case "paper":
		return Paper, nil
	}
	return Reduced, fmt.Errorf("unknown scale %q (want reduced or paper)", s)
}

// UnmarshalText is ParseScale for flag.TextVar and encoding/json.
func (s *Scale) UnmarshalText(text []byte) (err error) {
	*s, err = ParseScale(string(text))
	return err
}

// MarshalText renders the name ParseScale reads back.
func (s Scale) MarshalText() ([]byte, error) {
	switch s {
	case Reduced:
		return []byte("reduced"), nil
	case Paper:
		return []byte("paper"), nil
	}
	return nil, fmt.Errorf("unknown scale %d", int(s))
}

// Options is the sweep spec: which figures to regenerate and how the
// figure drivers run them. It is the POST /v1/sweep and /cluster/sweep
// body, the journaled payload of both, the spec a cluster cell runs
// under and what cesweep's and reproduce's flags fill in (flags.go);
// Validate (spec.go) is its one admission check. The drivers themselves
// read neither Figure nor Figures: a driver is one figure already.
type Options struct {
	// Figure names the one figure a sweep job regenerates ("3".."9").
	Figure string `json:"figure,omitempty"`
	// Figures lists the figures a distributed sweep shards into cells;
	// with Figure also empty, all seven.
	Figures []string `json:"figures,omitempty"`
	// Scale selects Reduced (default) or Paper fidelity.
	Scale Scale `json:"scale,omitempty"`
	// Nodes overrides the reduced-scale node count (default 512).
	// Ignored at Paper scale, where Table II's SimNodes are used.
	// Note that aggressive reduction inflates the per-node CE rate
	// through scale compensation, which pushes the short-detour
	// (software-logging) regime from "absorbed" toward "serialized";
	// keep the reduction factor modest (<= ~32x) when the software
	// rows matter.
	Nodes int `json:"nodes,omitempty"`
	// Iterations overrides the main-loop iteration count. When zero,
	// each workload runs enough iterations to cover SpanNanos of
	// simulated time (subject to OpsBudget), so short-grained workloads
	// (lammps-crack's 4 ms steps) see as many CE opportunities as
	// long-grained ones.
	Iterations int `json:"iters,omitempty"`
	// SpanNanos is the target simulated run length per workload when
	// Iterations is zero (default 1.5 s).
	SpanNanos int64 `json:"span_ns,omitempty"`
	// OpsBudget caps the trace size (ranks x ops/rank) when Iterations
	// is zero (default 4M reduced, 64M paper).
	OpsBudget int `json:"ops_budget,omitempty"`
	// Reps overrides the repetitions per configuration
	// (default: 3 reduced, 8 paper — the paper averages >= 8).
	Reps int `json:"reps,omitempty"`
	// Seed is the base seed for trace generation and CE schedules.
	Seed uint64 `json:"seed,omitempty"`
	// Workloads restricts the workload set (default: all nine).
	Workloads []string `json:"workloads,omitempty"`
	// Experiments optionally supplies prepared experiments to the
	// figure drivers — e.g. a simcache-backed provider on cluster
	// workers, so cells sharing a (workload, nodes) point reuse one
	// resident baseline. nil builds with NewExperiment. Baseline
	// construction is deterministic, so any correct provider returns
	// an experiment bit-identical to NewExperiment's and results never
	// depend on who supplied it.
	Experiments func(ExperimentConfig) (*Experiment, error) `json:"-"`
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 512
	}
	if o.SpanNanos == 0 {
		o.SpanNanos = 1500 * nsPerMs
	}
	if o.OpsBudget == 0 {
		if o.Scale == Paper {
			o.OpsBudget = 64 << 20
		} else {
			o.OpsBudget = 4 << 20
		}
	}
	if o.Reps == 0 {
		if o.Scale == Paper {
			o.Reps = 8
		} else {
			o.Reps = 3
		}
	}
	if len(o.Workloads) == 0 {
		o.Workloads = tracegen.Names()
	}
	return o
}

// nodesFor returns the node count to simulate for a system whose paper
// simulation used paperNodes, plus the MTBCE compensation factor.
func (o Options) nodesFor(paperNodes int) (nodes int, compensate float64) {
	if o.Scale == Paper {
		return paperNodes, 1
	}
	if o.Nodes >= paperNodes {
		return paperNodes, 1
	}
	return o.Nodes, float64(o.Nodes) / float64(paperNodes)
}

// compensateMTBCE scales a per-node MTBCE so that simNodes nodes carry
// the same aggregate CE rate as the paper's node count.
func compensateMTBCE(mtbceNanos int64, factor float64) int64 {
	out := int64(float64(mtbceNanos) * factor)
	if out < 1 {
		out = 1
	}
	return out
}

// Row is one bar/point of a figure. The tags are the figure's JSON form
// (WriteJSON): results stored by the service tier are addressed by
// those bytes, so field order and names are part of the format.
type Row struct {
	Workload      string `json:"workload"`
	System        string `json:"system,omitempty"` // Table II system, when applicable
	Mode          string `json:"mode"`             // logging mode or duration label
	MTBCENanos    int64  `json:"mtbce_ns"`         // per-node MTBCE actually simulated
	PerEventNanos int64  `json:"per_event_ns"`
	Nodes         int    `json:"nodes"`
	// Reps is the number of non-saturated repetitions behind MeanPct
	// (the sample size); SaturatedReps counts repetitions excluded
	// because the scenario made no progress.
	Reps          int     `json:"reps"`
	SaturatedReps int     `json:"saturated_reps,omitempty"`
	MeanPct       float64 `json:"mean_pct"`
	CI95Pct       float64 `json:"ci95_pct"`
	// Saturated marks a row with no usable sample at all: every
	// repetition saturated ("no-progress" in the rendered tables).
	Saturated bool `json:"saturated,omitempty"`
}

// Figure is a regenerated table/figure.
type Figure struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Rows  []Row  `json:"rows"`
}

// Table renders the figure data as a report table.
func (f *Figure) Table() *report.Table {
	t := report.New(fmt.Sprintf("%s: %s", f.ID, f.Title),
		"workload", "system", "mode", "mtbce", "per-event", "nodes", "reps", "slowdown", "ci95")
	for _, r := range f.Rows {
		slow := report.Pct(r.MeanPct)
		if r.Saturated {
			slow = "no-progress"
		} else if r.SaturatedReps > 0 {
			// Mean over the non-saturated repetitions only.
			slow += fmt.Sprintf(" (%d sat)", r.SaturatedReps)
		}
		t.AddRow(r.Workload, r.System, r.Mode,
			report.Nanos(r.MTBCENanos), report.Nanos(r.PerEventNanos),
			fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%d", r.Reps),
			slow, report.Pct(r.CI95Pct))
	}
	return t
}

// expCache builds each (workload, nodes) experiment at most once per
// figure.
type expCache struct {
	opts Options
	m    map[expKey]*Experiment
}

type expKey struct {
	workload string
	nodes    int
}

func newExpCache(opts Options) *expCache {
	return &expCache{opts: opts, m: map[expKey]*Experiment{}}
}

func (c *expCache) get(workload string, nodes int) (*Experiment, error) {
	key := expKey{workload, nodes}
	if e, ok := c.m[key]; ok {
		return e, nil
	}
	iters, err := c.opts.iterationsFor(workload, nodes)
	if err != nil {
		return nil, err
	}
	build := c.opts.Experiments
	if build == nil {
		build = NewExperiment
	}
	e, err := build(ExperimentConfig{
		Workload:   workload,
		Nodes:      nodes,
		Iterations: iters,
		TraceSeed:  c.opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	c.m[key] = e
	return e, nil
}

// iterationsFor picks the iteration count for a workload: the explicit
// override, or enough iterations to span SpanNanos of simulated time,
// capped so the expanded trace stays within OpsBudget operations.
func (o Options) iterationsFor(workload string, nodes int) (int, error) {
	if o.Iterations != 0 {
		return o.Iterations, nil
	}
	spec, err := tracegen.Lookup(workload)
	if err != nil {
		return 0, err
	}
	iters := int(o.SpanNanos / spec.ComputeNs)
	if iters < 4 {
		iters = 4
	}
	// Estimate expanded ops per rank per iteration: halo (4 ops per
	// neighbour) plus ~3*ceil(log2 n) per collective.
	nb := 2 * spec.Dims
	if spec.Stencil == tracegen.Full {
		nb = 1
		for i := 0; i < spec.Dims; i++ {
			nb *= 3
		}
		nb--
	}
	logN := 1
	for v := 1; v < nodes; v *= 2 {
		logN++
	}
	colls := spec.DotsPerIter
	if spec.AllreduceEvery > 0 {
		colls++
	}
	opsPerIter := 4*nb + 4 + colls*3*logN
	maxIters := o.OpsBudget / (nodes * opsPerIter)
	if maxIters < 4 {
		maxIters = 4
	}
	if iters > maxIters {
		iters = maxIters
	}
	return iters, nil
}

// cell is one row of a figure as its definition declares it, at the
// paper's scale; runFigure turns it into the row that is simulated
// (docs/MODEL.md §7).
type cell struct {
	// paperNodes is the node count the paper simulated the row at:
	// runFigure picks the count to simulate and scales sc.MTBCE to keep
	// the aggregate CE rate. Zero runs on opts.Nodes at the MTBCE as
	// given, as Fig. 3 does.
	paperNodes int
	sc         Scenario // MTBCE at the paper's scale; repetition i runs at sc.Seed+i
	// mix, when set, replaces the Poisson arrivals: compiled at the
	// compensated MTBCE into a fresh Process per row, so a cluster cell
	// rebuilding one workload's rows gets bit-identical schedules.
	mix *faultmodel.Spec
	row Row // the labels: System, Mode, PerEventNanos
}

// figureDef declares a figure: its rows for one workload, in output
// order. Every workload gets the same rows.
type figureDef struct {
	id, title string
	// repsFactor multiplies opts.Reps; zero is one.
	repsFactor int
	cells      func(ctx context.Context, opts Options) ([]cell, error)
}

// exascaleNodes is the size of the paper's hypothetical exascale system
// (Table II), which Figs. 6-9 and the surface run on.
const exascaleNodes = 16384

// cell returns the common row: every node errs at mtbce, each CE costs
// perEvent, and the CE schedule is seeded opts.Seed+1.
func (o Options) cell(paperNodes int, system, mode string, mtbce, perEvent int64) cell {
	return cell{
		paperNodes: paperNodes,
		sc:         Scenario{MTBCE: mtbce, PerEvent: noise.Fixed(perEvent), Target: noise.AllNodes, Seed: o.Seed + 1},
		row:        Row{System: system, Mode: mode, PerEventNanos: perEvent},
	}
}

// modeCells appends one (system, MTBCE, arrival mixture) point under
// each of the three logging modes.
func (o Options) modeCells(out []cell, paperNodes int, system string, mtbce int64, mix *faultmodel.Spec) []cell {
	for _, mode := range systems.LoggingModes() {
		c := o.cell(paperNodes, system, mode.Name, mtbce, mode.PerEventNanos)
		c.mix = mix
		out = append(out, c)
	}
	return out
}

// figureDefs is every sweep figure, in id order. Adding a figure is
// adding an entry.
var figureDefs = []figureDef{
	// The single-process CE sweep: slowdown vs MTBCE(node) for the three
	// logging overheads, with CEs confined to rank 0 (§IV-B). Single-node
	// injection has far fewer CE opportunities per run than the all-node
	// figures; double the repetitions to tame variance.
	{id: "fig3", title: "single-process CEs: slowdown vs MTBCE(node)", repsFactor: 2, cells: fig3Cells},
	// The current-system study: Cielo, Trinity and Summit at their
	// Table II CE rates, all nodes affected (§IV-C).
	{id: "fig4", title: "correctable error overheads on Cielo, Trinity, Summit", cells: systemCells(systems.HPC)},
	// The exascale projections: the five hypothetical systems of
	// Table II, all nodes affected (§IV-C).
	{id: "fig5", title: "correctable error overheads on hypothetical exascale systems", cells: systemCells(systems.Exascale)},
	// The software/OS-reporting stress test: extreme MTBCE values (36 s,
	// 3.6 s, ~1 s) on an exascale-size system (§IV-D).
	{id: "fig6", title: "software/OS reporting at extreme CE rates", cells: fig6Cells},
	// The reporting-duration sweep: per-event overheads from 150 ns to
	// 133 ms at MTBCE(node) = 0.2 s and 720 s on an exascale-size system
	// (§IV-E). The 0.2 s x 133 ms point saturates (the paper omits it:
	// "essentially unable to make any reasonable forward progress").
	{id: "fig7", title: "per-event reporting duration sweep",
		cells: durationGrid("exascale", []int64{200 * nsPerMs, 720 * nsPerS}, DefaultSurfaceDurations())},
	{id: "fig8", title: "application overhead vs fault-mix composition", cells: fig8Cells},
	{id: "fig9", title: "storm-tail sensitivity: burst intensity vs logging path", cells: fig9Cells},
}

func fig3Cells(_ context.Context, o Options) ([]cell, error) {
	mtbces := []int64{
		1 * nsPerMs, 10 * nsPerMs, 100 * nsPerMs, 200 * nsPerMs,
		1 * nsPerS, 10 * nsPerS, 100 * nsPerS, 1000 * nsPerS, 10000 * nsPerS,
	}
	var out []cell
	for _, mode := range systems.LoggingModes() {
		for i, mtbce := range mtbces {
			c := o.cell(0, "", mode.Name, mtbce, mode.PerEventNanos)
			c.sc.Target = 0
			c.sc.Seed = o.Seed + uint64(i)*1000 + 1
			out = append(out, c)
		}
	}
	return out, nil
}

// systemCells is the Fig. 4/5 grid: the Table II systems of one class x
// logging modes, each system at its own simulated node count.
func systemCells(class systems.Class) func(context.Context, Options) ([]cell, error) {
	return func(_ context.Context, o Options) ([]cell, error) {
		var out []cell
		for _, sys := range systems.Catalog() {
			if sys.Class == class {
				out = o.modeCells(out, sys.SimNodes, sys.Name, sys.MTBCENanos(), nil)
			}
		}
		return out, nil
	}
}

func fig6Cells(_ context.Context, o Options) ([]cell, error) {
	var out []cell
	for _, mtbce := range []int64{36 * nsPerS, 3600 * nsPerMs, 1008 * nsPerMs} {
		out = o.modeCells(out, exascaleNodes, "exascale@"+report.Nanos(mtbce), mtbce, nil)
	}
	return out, nil
}

// durationGrid is the Fig. 7 grid and its generalization, the overhead
// surface: MTBCEs x per-event durations on the exascale system, rows
// labelled "<label>@<mtbce>".
func durationGrid(label string, mtbces, durations []int64) func(context.Context, Options) ([]cell, error) {
	return func(_ context.Context, o Options) ([]cell, error) {
		var out []cell
		for _, mtbce := range mtbces {
			for _, d := range durations {
				out = append(out, o.cell(exascaleNodes, label+"@"+report.Nanos(mtbce), report.Nanos(d), mtbce, d))
			}
		}
		return out, nil
	}
}

// FigureIDs lists the sweep figures RunFigure regenerates, ascending:
// the order a campaign runs them and a cluster merges them in.
func FigureIDs() []string {
	ids := make([]string, len(figureDefs))
	for i, def := range figureDefs {
		ids[i] = strings.TrimPrefix(def.id, "fig")
	}
	return ids
}

// RunFigure regenerates sweep figure id ("3".."9") under opts. ctx is
// observed between repetitions: cancellation or deadline expiry
// surfaces as ctx.Err() and no figure. With an unexpired context the
// figure is a pure function of (id, opts) at any GOMAXPROCS.
func RunFigure(ctx context.Context, id string, opts Options) (*Figure, error) {
	def, err := figureByID(id)
	if err != nil {
		return nil, err
	}
	return runFigure(ctx, def, opts)
}

func figureByID(id string) (figureDef, error) {
	for _, def := range figureDefs {
		if def.id == "fig"+id {
			return def, nil
		}
	}
	return figureDef{}, fmt.Errorf("unknown figure %q (want 3..9)", id)
}

// runFigure is the one figure loop. It resolves every row's experiment
// serially on the calling goroutine, workload-major in declaration
// order — an Options.Experiments provider is never called concurrently
// — then runs all rows x repetitions as one fan-out over GOMAXPROCS and
// folds the outcomes in (row, seed) order.
func runFigure(ctx context.Context, def figureDef, opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	if def.repsFactor > 1 {
		opts.Reps *= def.repsFactor
	}
	cells, err := def.cells(ctx, opts)
	if err != nil {
		return nil, err
	}
	cache := newExpCache(opts)
	tasks := make([]rowTask, 0, len(opts.Workloads)*len(cells))
	for _, wl := range opts.Workloads {
		for _, c := range cells {
			nodes, comp := opts.Nodes, 1.0
			if c.paperNodes != 0 {
				nodes, comp = opts.nodesFor(c.paperNodes)
			}
			e, err := cache.get(wl, nodes)
			if err != nil {
				return nil, err
			}
			c.sc.MTBCE = compensateMTBCE(c.sc.MTBCE, comp)
			if c.mix != nil {
				mix := *c.mix
				mix.MTBCENanos = c.sc.MTBCE
				if c.sc.Arrivals, err = mix.Process(); err != nil {
					return nil, err
				}
			}
			c.row.Workload = wl
			tasks = append(tasks, rowTask{e: e, sc: c.sc, row: c.row})
		}
	}
	reps, err := runRepetitions(ctx, tasks, opts.Reps, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	f := &Figure{ID: def.id, Title: def.title, Rows: make([]Row, len(tasks))}
	for i := range tasks {
		rep, row := &reps[i], tasks[i].row
		row.Nodes = tasks[i].e.Ranks()
		row.Reps = rep.Sample.N()
		row.SaturatedReps = rep.SaturatedReps
		row.MTBCENanos = tasks[i].sc.MTBCE
		row.MeanPct = rep.Sample.Mean()
		row.CI95Pct = rep.Sample.CI95()
		// A partially saturated point still has a usable mean; only a fully
		// saturated one is rendered as "no-progress".
		row.Saturated = rep.Saturated && rep.Sample.N() == 0
		f.Rows[i] = row
	}
	return f, nil
}

// Figure3 … Figure9 and Figures are RunFigure without a context, for
// callers that have none to pass.
func Figure3(opts Options) (*Figure, error) { return RunFigure(context.Background(), "3", opts) }
func Figure4(opts Options) (*Figure, error) { return RunFigure(context.Background(), "4", opts) }
func Figure5(opts Options) (*Figure, error) { return RunFigure(context.Background(), "5", opts) }
func Figure6(opts Options) (*Figure, error) { return RunFigure(context.Background(), "6", opts) }
func Figure7(opts Options) (*Figure, error) { return RunFigure(context.Background(), "7", opts) }
func Figure8(opts Options) (*Figure, error) { return RunFigure(context.Background(), "8", opts) }
func Figure9(opts Options) (*Figure, error) { return RunFigure(context.Background(), "9", opts) }

// Figures maps figure identifiers to their context-free drivers.
func Figures() map[string]func(Options) (*Figure, error) {
	m := make(map[string]func(Options) (*Figure, error), len(figureDefs))
	for _, id := range FigureIDs() {
		m[id] = func(opts Options) (*Figure, error) { return RunFigure(context.Background(), id, opts) }
	}
	return m
}

// Figure2 regenerates the node-level noise signatures (Fig. 2a-d plus
// the "all logging off" case described in prose) and returns the
// signatures plus a summary figure of per-mode detour statistics.
func Figure2(seed uint64) (map[string]*mca.Signature, *report.Table, error) {
	return figure2(mca.Config{Seed: seed})
}

// figure2 is Figure2 on the node base describes; its zero fields take
// the Blake defaults.
func figure2(base mca.Config) (map[string]*mca.Signature, *report.Table, error) {
	modes := []mca.Mode{mca.Native, mca.DryRun, mca.CorrectionOnly, mca.Software, mca.Firmware}
	sigs := make(map[string]*mca.Signature, len(modes))
	t := report.New("fig2: Blake noise signatures under EINJ CE injection",
		"mode", "detours", "max-detour", "mean-detour", "noise", "per-event", "events")
	for _, m := range modes {
		cfg := base
		cfg.Mode = m
		sig, err := mca.Run(cfg)
		if err != nil {
			return nil, nil, err
		}
		sigs[m.String()] = sig
		st := sig.ComputeStats()
		perEvent, events := sig.PerEventCost()
		t.AddRow(m.String(),
			fmt.Sprintf("%d", st.Count),
			report.Nanos(st.MaxDur),
			report.Nanos(int64(st.MeanDur)),
			fmt.Sprintf("%.4f%%", st.NoisePct),
			report.Nanos(int64(perEvent)),
			fmt.Sprintf("%d", events))
	}
	return sigs, t, nil
}

// Table2 renders the Table II catalog, including the MTBCE derived from
// the CE-per-node-year column next to the stated value.
func Table2() *report.Table {
	t := report.New("table2: measured and hypothesized correctable error parameters",
		"system", "class", "ce/node/yr", "gib/node", "ce/gib/yr", "mtbce-node", "mtbce-derived", "nodes", "sim-nodes")
	classNames := map[systems.Class]string{
		systems.DataCenter: "datacenter", systems.HPC: "hpc", systems.Exascale: "exascale",
	}
	for _, s := range systems.Catalog() {
		t.AddRow(s.Name, classNames[s.Class],
			fmt.Sprintf("%.2f", s.CEPerNodeYear),
			fmt.Sprintf("%.0f", s.GiBPerNode),
			fmt.Sprintf("%.2f", s.CEPerGiBYear),
			fmt.Sprintf("%.1fs", s.MTBCESeconds),
			fmt.Sprintf("%.1fs", s.ComputedMTBCESeconds()),
			fmt.Sprintf("%d", s.Nodes),
			fmt.Sprintf("%d", s.SimNodes))
	}
	return t
}
