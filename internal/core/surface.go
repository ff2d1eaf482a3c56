package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/noise"
	"repro/internal/report"
)

// DefaultSurfaceMTBCEs is the rate axis of the overhead surface: five
// decades around the paper's Fig. 7 points (0.2 s and 720 s).
func DefaultSurfaceMTBCEs() []int64 {
	return []int64{
		200 * nsPerMs, 2 * nsPerS, 20 * nsPerS, 200 * nsPerS, 2000 * nsPerS,
	}
}

// DefaultSurfaceDurations is the duration axis: the paper's Fig. 7
// sweep from hardware correction (150 ns) to firmware logging (133 ms).
func DefaultSurfaceDurations() []int64 {
	return []int64{150, 1 * nsPerUs, 10 * nsPerUs, 100 * nsPerUs, 775 * nsPerUs, 10 * nsPerMs, 133 * nsPerMs}
}

// Surface generalizes Fig. 7 into a full (MTBCE x per-event-duration)
// overhead grid for one workload. It returns the rows and a rendered
// heatmap whose cells are mean slowdown percentages (negative sentinel
// for no-progress configurations).
func Surface(opts Options, workload string, mtbces, durations []int64) (*Figure, *report.Heatmap, error) {
	opts = opts.withDefaults()
	if len(mtbces) == 0 {
		mtbces = DefaultSurfaceMTBCEs()
	}
	if len(durations) == 0 {
		durations = DefaultSurfaceDurations()
	}
	const paperNodes = 16384
	f := &Figure{
		ID:    "surface",
		Title: fmt.Sprintf("overhead surface for %s (Fig. 7 generalization)", workload),
	}
	hm := &report.Heatmap{
		Title:    f.Title,
		RowLabel: "mtbce",
		ColLabel: "per-event",
		LogScale: true,
	}
	cache := newExpCache(opts)
	nodes, comp := opts.nodesFor(paperNodes)
	e, err := cache.get(workload, nodes)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range durations {
		hm.ColNames = append(hm.ColNames, report.Nanos(d))
	}
	var tasks []rowTask
	for _, mtbce := range mtbces {
		hm.RowNames = append(hm.RowNames, report.Nanos(mtbce))
		for _, d := range durations {
			sc := Scenario{
				MTBCE:    compensateMTBCE(mtbce, comp),
				PerEvent: noise.Fixed(d),
				Target:   noise.AllNodes,
				Seed:     opts.Seed + 1,
			}
			rrow := Row{
				Workload: workload,
				System:   fmt.Sprintf("surface@%s", report.Nanos(mtbce)),
				Mode:     report.Nanos(d), PerEventNanos: d,
			}
			tasks = append(tasks, rowTask{e: e, sc: sc, row: rrow})
		}
	}
	if err := runRows(f, opts, tasks); err != nil {
		return nil, nil, err
	}
	for i := range mtbces {
		row := make([]float64, 0, len(durations))
		for _, r := range f.Rows[i*len(durations) : (i+1)*len(durations)] {
			if r.Saturated {
				row = append(row, -1)
			} else {
				row = append(row, r.MeanPct)
			}
		}
		hm.Values = append(hm.Values, row)
	}
	return f, hm, nil
}

// jsonFigure mirrors Figure for stable JSON output.
type jsonFigure struct {
	ID    string    `json:"id"`
	Title string    `json:"title"`
	Rows  []jsonRow `json:"rows"`
}

type jsonRow struct {
	Workload      string  `json:"workload"`
	System        string  `json:"system,omitempty"`
	Mode          string  `json:"mode"`
	MTBCENanos    int64   `json:"mtbce_ns"`
	PerEventNanos int64   `json:"per_event_ns"`
	Nodes         int     `json:"nodes"`
	Reps          int     `json:"reps"`
	SaturatedReps int     `json:"saturated_reps,omitempty"`
	MeanPct       float64 `json:"mean_pct"`
	CI95Pct       float64 `json:"ci95_pct"`
	Saturated     bool    `json:"saturated,omitempty"`
}

// WriteJSON emits the figure as a JSON document for external plotting.
func (f *Figure) WriteJSON(w io.Writer) error {
	out := jsonFigure{ID: f.ID, Title: f.Title, Rows: make([]jsonRow, len(f.Rows))}
	for i, r := range f.Rows {
		out.Rows[i] = jsonRow{
			Workload: r.Workload, System: r.System, Mode: r.Mode,
			MTBCENanos: r.MTBCENanos, PerEventNanos: r.PerEventNanos,
			Nodes: r.Nodes, Reps: r.Reps, SaturatedReps: r.SaturatedReps,
			MeanPct: r.MeanPct, CI95Pct: r.CI95Pct, Saturated: r.Saturated,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadFigureJSON parses a figure written by WriteJSON, for tooling that
// post-processes results.
func ReadFigureJSON(r io.Reader) (*Figure, error) {
	var in jsonFigure
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, err
	}
	f := &Figure{ID: in.ID, Title: in.Title, Rows: make([]Row, len(in.Rows))}
	for i, r := range in.Rows {
		f.Rows[i] = Row{
			Workload: r.Workload, System: r.System, Mode: r.Mode,
			MTBCENanos: r.MTBCENanos, PerEventNanos: r.PerEventNanos,
			Nodes: r.Nodes, Reps: r.Reps, SaturatedReps: r.SaturatedReps,
			MeanPct: r.MeanPct, CI95Pct: r.CI95Pct, Saturated: r.Saturated,
		}
	}
	return f, nil
}
