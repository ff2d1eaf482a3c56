package core

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/mca"
)

// tinyOpts keeps figure tests fast: 16 nodes, 2 iterations, 2 reps,
// and a restricted workload set where the full set isn't needed.
func tinyOpts(workloads ...string) Options {
	return Options{Nodes: 16, Iterations: 2, Reps: 2, Seed: 1, Workloads: workloads}
}

func findRows(f *Figure, match func(Row) bool) []Row {
	var out []Row
	for _, r := range f.Rows {
		if match(r) {
			out = append(out, r)
		}
	}
	return out
}

// TestFigure2Signatures runs Fig. 2 on 4 of the Blake node's
// 48 cores: the full node's five retained signatures are over 3.5 GiB
// resident. The full-scale Fig. 2 is examples/mcasignature's stdout
// golden, byte for byte.
func TestFigure2Signatures(t *testing.T) {
	sigs, table, err := figure2(mca.Config{Seed: 1, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"native", "dryrun", "correction-only", "software", "firmware"} {
		if sigs[mode] == nil {
			t.Fatalf("missing signature for %s", mode)
		}
	}
	var buf bytes.Buffer
	if err := table.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "firmware") {
		t.Fatal("fig2 table missing firmware row")
	}
	// Shape: firmware max detour >> software max detour >> native.
	fw := sigs["firmware"].ComputeStats().MaxDur
	sw := sigs["software"].ComputeStats().MaxDur
	nat := sigs["native"].ComputeStats().MaxDur
	if !(fw > 10*sw && sw > 10*nat) {
		t.Fatalf("detour ordering wrong: firmware=%d software=%d native=%d", fw, sw, nat)
	}
}

func TestFigure3Shape(t *testing.T) {
	f, err := Figure3(tinyOpts("minife"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Hardware-only rows: negligible at every rate (paper: < 1%).
	for _, r := range findRows(f, func(r Row) bool { return r.Mode == "hardware-only" }) {
		if r.Saturated || r.MeanPct > 1 {
			t.Fatalf("hardware-only at mtbce=%d: %v%%, want < 1%%", r.MTBCENanos, r.MeanPct)
		}
	}
	// Firmware at 200 ms MTBCE: the paper reports hundreds of percent.
	rows := findRows(f, func(r Row) bool {
		return r.Mode == "firmware-emca" && r.MTBCENanos == 200*nsPerMs
	})
	if len(rows) != 1 {
		t.Fatalf("firmware@200ms rows = %d", len(rows))
	}
	if !rows[0].Saturated && rows[0].MeanPct < 50 {
		t.Fatalf("firmware@200ms slowdown %v%%, want large", rows[0].MeanPct)
	}
	// Firmware at 1 ms MTBCE saturates (133 ms handling per 1 ms gap).
	sat := findRows(f, func(r Row) bool {
		return r.Mode == "firmware-emca" && r.MTBCENanos == 1*nsPerMs
	})
	if len(sat) != 1 || !sat[0].Saturated {
		t.Fatal("firmware@1ms not reported as no-progress")
	}
	// Slowdown is non-increasing in MTBCE for firmware (allow small
	// statistical wiggle at the negligible end).
	fw := findRows(f, func(r Row) bool { return r.Mode == "firmware-emca" && !r.Saturated })
	for i := 1; i < len(fw); i++ {
		if fw[i].MTBCENanos > fw[i-1].MTBCENanos && fw[i].MeanPct > fw[i-1].MeanPct+5 {
			t.Fatalf("firmware slowdown increased with rarer CEs: %+v -> %+v", fw[i-1], fw[i])
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	f, err := Figure4(tinyOpts("minife", "lammps-lj"))
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads x 3 systems x 3 modes.
	if len(f.Rows) != 18 {
		t.Fatalf("rows = %d, want 18", len(f.Rows))
	}
	// Paper: all current-system overheads are far below 10%.
	for _, r := range f.Rows {
		if r.Saturated {
			t.Fatalf("current system saturated: %+v", r)
		}
		if r.MeanPct > 10 {
			t.Fatalf("current system slowdown %v%% > 10%%: %+v", r.MeanPct, r)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	// lammps-crack has a 4 ms grain, so it needs enough iterations for
	// the run to be long enough to catch CEs at the x100 rate.
	f, err := Figure5(Options{Nodes: 16, Iterations: 50, Reps: 3, Seed: 1,
		Workloads: []string{"lammps-crack", "lammps-lj"}})
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads x 5 systems x 3 modes.
	if len(f.Rows) != 30 {
		t.Fatalf("rows = %d, want 30", len(f.Rows))
	}
	// Hardware-only negligible everywhere.
	for _, r := range findRows(f, func(r Row) bool { return r.Mode == "hardware-only" }) {
		if r.MeanPct > 1 {
			t.Fatalf("hardware-only %v%% on %s", r.MeanPct, r.System)
		}
	}
	// Firmware on the x100 system must hurt the collective-heavy crack
	// workload much more than on the x1 system.
	crackX1 := findRows(f, func(r Row) bool {
		return r.Workload == "lammps-crack" && r.System == "exascale-cielo" && r.Mode == "firmware-emca"
	})
	crackX100 := findRows(f, func(r Row) bool {
		return r.Workload == "lammps-crack" && r.System == "exascale-cielo-x100" && r.Mode == "firmware-emca"
	})
	if len(crackX1) != 1 || len(crackX100) != 1 {
		t.Fatal("missing crack firmware rows")
	}
	if crackX100[0].MeanPct <= crackX1[0].MeanPct {
		t.Fatalf("x100 (%v%%) not worse than x1 (%v%%)", crackX100[0].MeanPct, crackX1[0].MeanPct)
	}
}

func TestFigure6Shape(t *testing.T) {
	f, err := Figure6(tinyOpts("minife"))
	if err != nil {
		t.Fatal(err)
	}
	// 1 workload x 3 MTBCEs x 3 modes.
	if len(f.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(f.Rows))
	}
	// The absolute "< 10%" claim only holds at realistic node counts
	// (verified by the benchmark harness at 512+ nodes); at this tiny
	// test scale we assert the robust ordering instead:
	// hardware <= software <= firmware at every MTBCE, and firmware is
	// large at ~1 CE/s/node.
	bySystem := map[string]map[string]Row{}
	for _, r := range f.Rows {
		if bySystem[r.System] == nil {
			bySystem[r.System] = map[string]Row{}
		}
		bySystem[r.System][r.Mode] = r
	}
	for sys, modes := range bySystem {
		hw, sw, fw := modes["hardware-only"], modes["software-cmci"], modes["firmware-emca"]
		fwPct := fw.MeanPct
		if fw.Saturated {
			fwPct = 1e9
		}
		if hw.MeanPct > sw.MeanPct+1 || sw.MeanPct > fwPct+1 {
			t.Fatalf("%s: ordering violated: hw=%v sw=%v fw=%v", sys, hw.MeanPct, sw.MeanPct, fwPct)
		}
		if hw.MeanPct > 1 {
			t.Fatalf("%s: hardware-only %v%% > 1%%", sys, hw.MeanPct)
		}
	}
	oneSec := findRows(f, func(r Row) bool {
		return r.Mode == "firmware-emca" && strings.Contains(r.System, "1.008s")
	})
	if len(oneSec) != 1 {
		t.Fatalf("missing firmware@1.008s row")
	}
	if !oneSec[0].Saturated && oneSec[0].MeanPct < 20 {
		t.Fatalf("firmware at ~1 CE/s/node only %v%%, want large", oneSec[0].MeanPct)
	}
}

func TestFigure7Shape(t *testing.T) {
	f, err := Figure7(tinyOpts("minife"))
	if err != nil {
		t.Fatal(err)
	}
	// 1 workload x 2 MTBCEs x 7 durations.
	if len(f.Rows) != 14 {
		t.Fatalf("rows = %d, want 14", len(f.Rows))
	}
	// The 0.2s x 133ms point is the paper's omitted no-progress case.
	sat := findRows(f, func(r Row) bool {
		return r.PerEventNanos == 133*nsPerMs && strings.Contains(r.System, "200ms")
	})
	if len(sat) != 1 || !sat[0].Saturated {
		t.Fatalf("0.2s x 133ms not saturated: %+v", sat)
	}
	// At 720s MTBCE, longer per-event durations never help.
	rows := findRows(f, func(r Row) bool { return strings.Contains(r.System, "720s") && !r.Saturated })
	for i := 1; i < len(rows); i++ {
		if rows[i].PerEventNanos > rows[i-1].PerEventNanos && rows[i].MeanPct < rows[i-1].MeanPct-5 {
			t.Fatalf("longer duration decreased slowdown: %+v -> %+v", rows[i-1], rows[i])
		}
	}
}

func TestTable2Render(t *testing.T) {
	tbl := Table2()
	var buf bytes.Buffer
	if err := tbl.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cielo", "trinity", "summit", "exascale-facebook-median", "1200000.0s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 missing %q:\n%s", want, out)
		}
	}
}

func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scale
		ok   bool
	}{
		{"", Reduced, true},
		{"reduced", Reduced, true},
		{"paper", Paper, true},
		{"Paper", Reduced, false},
		{"bogus", Reduced, false},
		{" reduced", Reduced, false},
	} {
		got, err := ParseScale(tc.in)
		if got != tc.want || (err == nil) != tc.ok {
			t.Errorf("ParseScale(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if err != nil && !(strings.Contains(err.Error(), "reduced") && strings.Contains(err.Error(), "paper")) {
			t.Errorf("ParseScale(%q) error %q does not name the accepted values", tc.in, err)
		}
	}
}

func TestFiguresRegistry(t *testing.T) {
	reg := Figures()
	for _, id := range []string{"3", "4", "5", "6", "7"} {
		if reg[id] == nil {
			t.Fatalf("figure %s missing from registry", id)
		}
	}
}

// TestFigureDefsCoverFigures pins the figure table to what the seven
// hand-written drivers produced: the ids FigureIDs lists are sorted and
// are exactly the keys of Figures, and each definition carries the
// driver's figure ID and title.
func TestFigureDefsCoverFigures(t *testing.T) {
	want := []struct{ id, figID, title string }{
		{"3", "fig3", "single-process CEs: slowdown vs MTBCE(node)"},
		{"4", "fig4", "correctable error overheads on Cielo, Trinity, Summit"},
		{"5", "fig5", "correctable error overheads on hypothetical exascale systems"},
		{"6", "fig6", "software/OS reporting at extreme CE rates"},
		{"7", "fig7", "per-event reporting duration sweep"},
		{"8", "fig8", "application overhead vs fault-mix composition"},
		{"9", "fig9", "storm-tail sensitivity: burst intensity vs logging path"},
	}
	ids := FigureIDs()
	if !sort.StringsAreSorted(ids) {
		t.Fatalf("FigureIDs() = %v, not sorted", ids)
	}
	reg := Figures()
	if len(ids) != len(want) || len(reg) != len(want) {
		t.Fatalf("FigureIDs() = %v, Figures() has %d entries, want %d of each", ids, len(reg), len(want))
	}
	for i, w := range want {
		if ids[i] != w.id || reg[w.id] == nil {
			t.Fatalf("figure %s: FigureIDs()[%d] = %q, in Figures(): %v", w.id, i, ids[i], reg[w.id] != nil)
		}
		def, err := figureByID(w.id)
		if err != nil {
			t.Fatal(err)
		}
		if def.id != w.figID || def.title != w.title {
			t.Errorf("figure %s is (%q, %q), want (%q, %q)", w.id, def.id, def.title, w.figID, w.title)
		}
	}
	if _, err := RunFigure(context.Background(), "2", tinyOpts("minife")); err == nil {
		t.Error("RunFigure ran figure 2, which is not a sweep figure")
	}
}

func TestFigureTableRendering(t *testing.T) {
	f := &Figure{ID: "figX", Title: "t", Rows: []Row{
		{Workload: "w", System: "s", Mode: "m", MTBCENanos: nsPerS, PerEventNanos: 150, Nodes: 4, Reps: 2, MeanPct: 1.5},
		{Workload: "w2", Mode: "m", Saturated: true},
	}}
	var buf bytes.Buffer
	if err := f.Table().WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "no-progress") {
		t.Fatal("saturated row not rendered as no-progress")
	}
	if !strings.Contains(out, "1.50%") {
		t.Fatalf("slowdown not rendered:\n%s", out)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Nodes != 512 || o.Reps != 3 || len(o.Workloads) != 9 {
		t.Fatalf("reduced defaults wrong: %+v", o)
	}
	if o.SpanNanos != 1500*nsPerMs || o.OpsBudget != 4<<20 {
		t.Fatalf("span defaults wrong: %+v", o)
	}
	p := Options{Scale: Paper}.withDefaults()
	if p.Reps != 8 || p.OpsBudget != 64<<20 {
		t.Fatalf("paper defaults wrong: %+v", p)
	}
	// Span normalization: lammps-crack (4 ms grain) gets many more
	// iterations than lammps-snap (240 ms grain).
	crackIters, err := o.iterationsFor("lammps-crack", 128)
	if err != nil {
		t.Fatal(err)
	}
	snapIters, err := o.iterationsFor("lammps-snap", 128)
	if err != nil {
		t.Fatal(err)
	}
	if crackIters <= 10*snapIters {
		t.Fatalf("span normalization inactive: crack=%d snap=%d", crackIters, snapIters)
	}
	// Explicit override wins.
	fixed := Options{Iterations: 7}.withDefaults()
	if it, _ := fixed.iterationsFor("lulesh", 64); it != 7 {
		t.Fatalf("explicit iterations ignored: %d", it)
	}
	// Budget caps the iteration count.
	tight := Options{OpsBudget: 100000}.withDefaults()
	loose := Options{OpsBudget: 100 << 20}.withDefaults()
	tightIt, _ := tight.iterationsFor("lammps-crack", 512)
	looseIt, _ := loose.iterationsFor("lammps-crack", 512)
	if tightIt >= looseIt {
		t.Fatalf("ops budget has no effect: %d vs %d", tightIt, looseIt)
	}
}

func TestNodesForCompensation(t *testing.T) {
	o := Options{Nodes: 128}.withDefaults()
	nodes, comp := o.nodesFor(16384)
	if nodes != 128 || comp != 128.0/16384.0 {
		t.Fatalf("nodesFor(16384) = %d, %v", nodes, comp)
	}
	// Paper scale never compensates.
	p := Options{Scale: Paper}.withDefaults()
	nodes, comp = p.nodesFor(16384)
	if nodes != 16384 || comp != 1 {
		t.Fatalf("paper nodesFor = %d, %v", nodes, comp)
	}
	// Target above paper nodes clamps to paper nodes.
	big := Options{Nodes: 99999}.withDefaults()
	nodes, comp = big.nodesFor(4096)
	if nodes != 4096 || comp != 1 {
		t.Fatalf("clamped nodesFor = %d, %v", nodes, comp)
	}
}

func TestCompensateMTBCE(t *testing.T) {
	if got := compensateMTBCE(1000, 0.5); got != 500 {
		t.Fatalf("compensate = %d, want 500", got)
	}
	if got := compensateMTBCE(10, 0.0001); got != 1 {
		t.Fatalf("compensate floor = %d, want 1", got)
	}
	if got := compensateMTBCE(1000, 1); got != 1000 {
		t.Fatalf("identity compensate = %d", got)
	}
}
