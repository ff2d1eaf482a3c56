package core

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/golden"
)

func TestSurfaceShape(t *testing.T) {
	opts := Options{Nodes: 16, Iterations: 20, Reps: 2, Seed: 1}
	mtbces := []int64{200 * nsPerMs, 200 * nsPerS}
	durations := []int64{150, 775 * nsPerUs, 133 * nsPerMs}
	f, hm, err := Surface(context.Background(), opts, "minife", mtbces, durations)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != len(mtbces)*len(durations) {
		t.Fatalf("rows = %d, want %d", len(f.Rows), len(mtbces)*len(durations))
	}
	if len(hm.Values) != len(mtbces) || len(hm.Values[0]) != len(durations) {
		t.Fatalf("heatmap dims %dx%d", len(hm.Values), len(hm.Values[0]))
	}
	// 0.2s x 133ms is the no-progress sentinel.
	if hm.Values[0][2] != -1 {
		t.Fatalf("0.2s x 133ms cell = %v, want -1 sentinel", hm.Values[0][2])
	}
	// 150ns column is negligible everywhere.
	for r := range hm.Values {
		if hm.Values[r][0] > 1 {
			t.Fatalf("150ns column shows %v%%", hm.Values[r][0])
		}
	}
	// Heatmap renders without error and includes the sentinel mark.
	var buf bytes.Buffer
	if err := hm.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "X") {
		t.Fatalf("no-progress cell not rendered:\n%s", buf.String())
	}
}

func TestSurfaceDefaults(t *testing.T) {
	if got := DefaultSurfaceMTBCEs(); len(got) != 5 {
		t.Fatalf("default mtbce axis: %d points", len(got))
	}
	if got := DefaultSurfaceDurations(); len(got) != 7 || got[0] != 150 {
		t.Fatalf("default duration axis wrong: %v", got)
	}
}

func TestSurfaceUnknownWorkload(t *testing.T) {
	if _, _, err := Surface(context.Background(), Options{Nodes: 8, Iterations: 2, Reps: 1}, "bogus", nil, nil); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestFigureJSONRoundTrip(t *testing.T) {
	f := &Figure{ID: "fig5", Title: "t", Rows: []Row{
		{Workload: "lulesh", System: "exascale-cielo", Mode: "firmware-emca",
			MTBCENanos: 55440 * nsPerS, PerEventNanos: 133 * nsPerMs,
			Nodes: 128, Reps: 3, MeanPct: 12.5, CI95Pct: 1.25},
		{Workload: "hpcg", Mode: "software-cmci", Saturated: true},
	}}
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "\"mtbce_ns\"") {
		t.Fatal("expected snake_case keys")
	}
	back, err := ReadFigureJSON(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, f) {
		t.Fatalf("json round trip mismatch:\n%+v\n%+v", back, f)
	}
}

func TestReadFigureJSONErrors(t *testing.T) {
	if _, err := ReadFigureJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad json accepted")
	}
}

// Surface golden. testdata/surface_golden.json was recorded at the
// last commit where Surface was its own hand-written loop, so the
// declared-grid runner has to reproduce that loop's rows and heatmap
// byte-for-byte. Regenerate only after an intentional model change.
func TestSurfaceGolden(t *testing.T) {
	f, hm, err := Surface(context.Background(), Options{Nodes: 8, Iterations: 2, Reps: 1, Seed: 1}, "minife",
		[]int64{200 * nsPerMs, 200 * nsPerS}, []int64{150, 775 * nsPerUs, 133 * nsPerMs})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := f.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode(hm); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "surface_golden.json"), got.Bytes())
}
