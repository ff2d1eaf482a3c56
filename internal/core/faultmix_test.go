package core

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

func TestFigure8Shape(t *testing.T) {
	f, err := RunFigure(context.Background(), "8", tinyOpts("minife"))
	if err != nil {
		t.Fatal(err)
	}
	// 1 workload x 4 mix presets x 3 logging modes.
	if len(f.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(f.Rows))
	}
	// Every preset keeps the mode ordering: hardware-only must not cost
	// more than firmware under the same mixture.
	for _, mix := range []string{"field-ddr4", "high-altitude", "skewed-dimms", "bursty-row"} {
		rows := findRows(f, func(r Row) bool { return r.System == mix })
		if len(rows) != 3 {
			t.Fatalf("%s: rows = %d, want 3", mix, len(rows))
		}
		var hw, fw Row
		for _, r := range rows {
			switch r.Mode {
			case "hardware-only":
				hw = r
			case "firmware-emca":
				fw = r
			}
		}
		if hw.Saturated {
			t.Fatalf("%s: hardware-only saturated: %+v", mix, hw)
		}
		if !fw.Saturated && fw.MeanPct < hw.MeanPct {
			t.Fatalf("%s: firmware %v%% cheaper than hardware-only %v%%", mix, fw.MeanPct, hw.MeanPct)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	f, err := RunFigure(context.Background(), "9", tinyOpts("minife"))
	if err != nil {
		t.Fatal(err)
	}
	// 1 workload x 4 burst intensities x 2 logging paths.
	if len(f.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(f.Rows))
	}
	perAt := func(system, mode string) int64 {
		rows := findRows(f, func(r Row) bool { return r.System == system && r.Mode == mode })
		if len(rows) != 1 {
			t.Fatalf("%s/%s: rows = %d, want 1", system, mode, len(rows))
		}
		return rows[0].PerEventNanos
	}
	// The figure's point: at storm-scale trains the software path's
	// effective per-CE cost collapses (CMCI storm mitigation switches to
	// polling) while firmware keeps paying an SMI per event.
	swLong := perAt("burst=64", "software-cmci")
	fwLong := perAt("burst=64", "firmware-emca")
	if swLong >= fwLong {
		t.Fatalf("storm gap missing: software %dns >= firmware %dns at burst=64", swLong, fwLong)
	}
	swShort := perAt("burst=1", "software-cmci")
	if swLong > swShort {
		t.Fatalf("software per-CE cost grew with burst length: %dns (burst=64) > %dns (burst=1)",
			swLong, swShort)
	}
}

// TestFaultMixFiguresBitIdentical reruns both fault-mix figures and
// requires byte-identical JSON — the arrival mixture must not leak any
// run-to-run state (handle tables, map iteration, shared rng).
func TestFaultMixFiguresBitIdentical(t *testing.T) {
	for _, id := range []string{"8", "9"} {
		var first bytes.Buffer
		for trial := 0; trial < 2; trial++ {
			f, err := RunFigure(context.Background(), id, tinyOpts("minife"))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := f.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if trial == 0 {
				first = buf
			} else if !bytes.Equal(first.Bytes(), buf.Bytes()) {
				t.Fatalf("fig%s: rerun diverged:\n%s\nvs\n%s", id, first.String(), buf.String())
			}
		}
	}
}

// TestFaultMixSmokeGolden is the faultmix-smoke target (Makefile, CI):
// a small fixed-seed run of both fault-mix figures must match the
// committed golden byte-for-byte.
func TestFaultMixSmokeGolden(t *testing.T) {
	var got bytes.Buffer
	for _, id := range []string{"8", "9"} {
		f, err := RunFigure(context.Background(), id, tinyOpts("minife"))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
	}
	golden.Check(t, filepath.Join("testdata", "faultmix_smoke_golden.json"), got.Bytes())
}
