package faultmodel

import (
	"testing"

	"repro/internal/mca"
	"repro/internal/rng"
)

func TestGeneratorMatchesProcessSchedule(t *testing.T) {
	// The Generator must reproduce the exact arrival times the Process
	// yields for the same (seed, node) under noise.CE — attaching
	// addresses never perturbs the timing.
	s := testSpec()
	p, err := s.Process()
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Generator(21, 6)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewStream(21, 6)
	var state uint64
	var at int64
	for i := 0; i < 1000; i++ {
		at += p.NextGap(src, &state)
		want := at
		if want < 1 {
			want = 1
		}
		ev := g.Next()
		if ev.TimeNanos != want {
			t.Fatalf("event %d at %d, process schedule says %d", i, ev.TimeNanos, want)
		}
	}
}

// uniques collects the distinct rows, columns, banks, and addresses of
// an event stream.
func uniques(evs []Event) (rows, cols, banks, addrs map[uint64]bool) {
	rows = map[uint64]bool{}
	cols = map[uint64]bool{}
	banks = map[uint64]bool{}
	addrs = map[uint64]bool{}
	for _, e := range evs {
		rows[e.Addr>>rowShift] = true
		cols[(e.Addr>>colShift)&(numCols-1)] = true
		banks[uint64(e.Bank)] = true
		addrs[e.Addr] = true
	}
	return
}

func TestFootprintShapes(t *testing.T) {
	single := func(kind string) []Event {
		s := Spec{MTBCENanos: 1e6, Modes: []Mode{{Kind: kind, Weight: 1}}}
		evs, err := s.Events(13, 1, 256)
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	t.Run("cell", func(t *testing.T) {
		_, _, banks, addrs := uniques(single("cell"))
		if len(addrs) != 1 || len(banks) != 1 {
			t.Fatalf("permanent cell fault produced %d addrs in %d banks, want 1 in 1", len(addrs), len(banks))
		}
	})
	t.Run("row", func(t *testing.T) {
		rows, cols, banks, _ := uniques(single("row"))
		if len(rows) != 1 || len(banks) != 1 {
			t.Fatalf("row fault spanned %d rows, %d banks, want 1, 1", len(rows), len(banks))
		}
		if len(cols) < 32 {
			t.Fatalf("row fault hit only %d distinct columns", len(cols))
		}
	})
	t.Run("column", func(t *testing.T) {
		rows, cols, banks, _ := uniques(single("column"))
		if len(cols) != 1 || len(banks) != 1 {
			t.Fatalf("column fault spanned %d columns, %d banks, want 1, 1", len(cols), len(banks))
		}
		if len(rows) < 32 {
			t.Fatalf("column fault hit only %d distinct rows", len(rows))
		}
	})
	t.Run("bank", func(t *testing.T) {
		rows, cols, banks, _ := uniques(single("bank"))
		if len(banks) != 1 {
			t.Fatalf("bank fault spanned %d banks, want 1", len(banks))
		}
		if len(rows) < 32 || len(cols) < 32 {
			t.Fatalf("bank fault too concentrated: %d rows, %d cols", len(rows), len(cols))
		}
	})
}

func TestTransientRedrawsPerTrain(t *testing.T) {
	// A permanent cell fault repeats one address forever; a transient
	// one re-draws its footprint at every new burst train.
	perm := Spec{MTBCENanos: 1e5, Modes: []Mode{{Kind: "cell", Weight: 1, BurstLen: 4, BurstGapNanos: 100}}}
	evs, err := perm.Events(3, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, addrs := uniques(evs)
	if len(addrs) != 1 {
		t.Fatalf("permanent bursty cell fault produced %d addresses, want 1", len(addrs))
	}
	tr := perm
	tr.Modes[0].Transient = true
	evs, err = tr.Events(3, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, addrs = uniques(evs)
	// ~100 trains of mean length 4; distinct strikes collide rarely.
	if len(addrs) < 20 {
		t.Fatalf("transient cell fault produced only %d addresses across ~100 strikes", len(addrs))
	}
	// Events carry their generating mode.
	for _, e := range evs {
		if e.Kind != FaultCell || !e.Transient {
			t.Fatalf("event misattributed: %+v", e)
		}
	}
	// Timestamps are non-decreasing and respect the ingest floor.
	last := int64(0)
	for _, e := range evs {
		if e.TimeNanos < 1 || e.TimeNanos < last {
			t.Fatalf("bad timestamp sequence: %d after %d", e.TimeNanos, last)
		}
		last = e.TimeNanos
	}
}

func TestStormBridge(t *testing.T) {
	s := Spec{
		MTBCENanos: 1e9,
		Modes: []Mode{
			{Kind: "cell", Weight: 0.5},
			{Kind: "row", Weight: 0.5, BurstLen: 32, BurstGapNanos: 1e6},
		},
	}
	cfg, err := s.StormMCAConfig(17, mca.Software)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BurstLen != 32 || cfg.BurstSpacing != 1e6 {
		t.Fatalf("storm config did not pick the burstiest mode: %+v", cfg)
	}
	sw, err := s.StormPerEventNanos(17, mca.Software)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := s.StormPerEventNanos(17, mca.Firmware)
	if err != nil {
		t.Fatal(err)
	}
	if sw <= 0 || fw <= 0 {
		t.Fatalf("non-positive per-event costs: software %d, firmware %d", sw, fw)
	}
	// Firmware pays an SMI (~7 ms) per CE; software pays CMCIs
	// (~0.7 ms) that collapse into polls once the storm threshold
	// trips. The gap between the two is the figure-9 story.
	if fw <= sw {
		t.Fatalf("firmware per-event %dns not above software %dns under storms", fw, sw)
	}
	sw2, err := s.StormPerEventNanos(17, mca.Software)
	if err != nil {
		t.Fatal(err)
	}
	if sw2 != sw {
		t.Fatalf("storm bridge not deterministic: %d vs %d", sw, sw2)
	}
}
