package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/envelope"
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
// for no-progress configurations). ctx is observed as RunFigure
// observes it: cancellation surfaces as ctx.Err() and no surface.
func Surface(ctx context.Context, opts Options, workload string, mtbces, durations []int64) (*Figure, *report.Heatmap, error) {
	if len(mtbces) == 0 {
		mtbces = DefaultSurfaceMTBCEs()
	}
	if len(durations) == 0 {
		durations = DefaultSurfaceDurations()
	}
	opts.Workloads = []string{workload}
	f, err := runFigure(ctx, figureDef{
		id:    "surface",
		title: fmt.Sprintf("overhead surface for %s (Fig. 7 generalization)", workload),
		cells: durationGrid("surface", mtbces, durations),
	}, opts)
	if err != nil {
		return nil, nil, err
	}
	hm := &report.Heatmap{
		Title:    f.Title,
		RowLabel: "mtbce",
		ColLabel: "per-event",
		LogScale: true,
	}
	for _, d := range durations {
		hm.ColNames = append(hm.ColNames, report.Nanos(d))
	}
	for i, mtbce := range mtbces {
		hm.RowNames = append(hm.RowNames, report.Nanos(mtbce))
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

// WriteJSON emits the figure as a JSON document for external plotting.
func (f *Figure) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadFigureJSON parses a figure written by WriteJSON (a worker's
// report, a journaled fragment) with envelope.Decode.
func ReadFigureJSON(r io.Reader) (*Figure, error) {
	var f Figure
	if err := envelope.Decode(r, &f); err != nil {
		return nil, err
	}
	return &f, nil
}
