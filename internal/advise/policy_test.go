package advise

import (
	"reflect"
	"testing"

	"repro/internal/faultmodel"
	"repro/internal/retire"
)

func baseInputs() Inputs {
	return Inputs{Workload: "lulesh", Nodes: 16384, BudgetPct: 10, GiBPerNode: 700}
}

func TestAdviseValidation(t *testing.T) {
	cases := []func(*Inputs){
		func(in *Inputs) { in.Workload = "" },
		func(in *Inputs) { in.Workload = "doom" },
		func(in *Inputs) { in.Nodes = 0 },
		func(in *Inputs) { in.BudgetPct = -1 },
		func(in *Inputs) { in.GiBPerNode = 0 },
		func(in *Inputs) { in.PerEventNanos = -1 },
		func(in *Inputs) { in.ObservedMTBCENanos = -1 },
	}
	for i, mutate := range cases {
		in := baseInputs()
		mutate(&in)
		if _, err := Advise(in); err == nil {
			t.Errorf("case %d: invalid inputs %+v accepted", i, in)
		}
	}
}

func TestAdviseModeMatrix(t *testing.T) {
	rec, err := Advise(baseInputs())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Modes) != 3 {
		t.Fatalf("want the three catalog modes, got %+v", rec.Modes)
	}
	// Costlier logging demands a higher MTBCE floor.
	for i := 1; i < len(rec.Modes); i++ {
		prev, cur := rec.Modes[i-1], rec.Modes[i]
		if !prev.Feasible || !cur.Feasible {
			t.Fatalf("catalog modes must be feasible at 10%%: %+v", rec.Modes)
		}
		if cur.PerEventNanos > prev.PerEventNanos && cur.MinMTBCENanos <= prev.MinMTBCENanos {
			t.Fatalf("floor not monotone in per-event cost: %+v", rec.Modes)
		}
	}
	if rec.RecommendedMode != "" || rec.Retirement != nil || rec.Checkpoint != nil {
		t.Fatalf("no observation given, yet recommendation sections present: %+v", rec)
	}
}

func TestAdviseInfeasibleModeIsAnswerNotError(t *testing.T) {
	in := baseInputs()
	in.PerEventNanos = 1e18 // ~31 years per CE: no MTBCE can absorb that
	rec, err := Advise(in)
	if err != nil {
		t.Fatalf("infeasibility must not be an error: %v", err)
	}
	if len(rec.Modes) != 1 || rec.Modes[0].Mode != "custom" {
		t.Fatalf("explicit per-event cost must replace the catalog: %+v", rec.Modes)
	}
	if rec.Modes[0].Feasible {
		t.Fatalf("mode reported feasible: %+v", rec.Modes[0])
	}
}

func TestAdviseRecommendsRichestAffordableMode(t *testing.T) {
	in := baseInputs()
	in.ObservedMTBCENanos = 400_000 * 1e9 // very healthy DRAM: ~4.6 days MTBCE
	rec, err := Advise(in)
	if err != nil {
		t.Fatal(err)
	}
	if rec.RecommendedMode != "firmware-emca" {
		t.Fatalf("healthy node should afford firmware-emca, got %q", rec.RecommendedMode)
	}

	in.ObservedMTBCENanos = 1e6 // a CE every millisecond: only hardware logging survives
	rec, err = Advise(in)
	if err != nil {
		t.Fatal(err)
	}
	if rec.RecommendedMode != "hardware-only" {
		t.Fatalf("storming node should fall back to hardware-only, got %q", rec.RecommendedMode)
	}
}

func TestAdviseRetirementVerdicts(t *testing.T) {
	in := baseInputs()
	in.ObservedMTBCENanos = 3600e9
	in.FaultKnown = true
	in.Fault = faultmodel.FaultRow
	in.FaultConfidence = 0.9
	rec, err := Advise(in)
	if err != nil {
		t.Fatal(err)
	}
	r := rec.Retirement
	if r == nil || !r.Worth || r.FootprintPages != faultmodel.FaultRow.FootprintPages() {
		t.Fatalf("row fault should be worth retiring: %+v", r)
	}
	if r.SuggestedThreshold != DefaultRetireThreshold {
		t.Fatalf("threshold: %+v", r)
	}

	in.Fault = faultmodel.FaultBank
	rec, err = Advise(in)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Retirement.Worth {
		t.Fatalf("bank fault (%d pages) cannot fit the %d-page budget: %+v",
			faultmodel.FaultBank.FootprintPages(), retire.DefaultMaxPages, rec.Retirement)
	}

	in.FaultKnown = false
	rec, err = Advise(in)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Retirement == nil || rec.Retirement.Worth || rec.Retirement.Reason == "" {
		t.Fatalf("unclassified fault must advise waiting, with a reason: %+v", rec.Retirement)
	}
}

func TestAdviseCheckpointRetune(t *testing.T) {
	in := baseInputs()
	in.ObservedMTBCENanos = 3600e9
	rec, err := Advise(in)
	if err != nil {
		t.Fatal(err)
	}
	c := rec.Checkpoint
	if c == nil {
		t.Fatal("observation given but no checkpoint advice")
	}
	if c.NodeMTBFNanos != int64(CEtoDUERatio)*3600e9 {
		t.Fatalf("NodeMTBF = %d, want MTBCE x %d", c.NodeMTBFNanos, CEtoDUERatio)
	}
	if c.SystemMTBFNanos <= 0 || c.SystemMTBFNanos >= c.NodeMTBFNanos {
		t.Fatalf("system MTBF must shrink with machine size: %+v", c)
	}
	if c.DalyNanos <= 0 || c.YoungNanos <= 0 {
		t.Fatalf("intervals: %+v", c)
	}
	if c.CheckpointNanos != DefaultCheckpointNanos || c.RestartNanos != DefaultRestartNanos {
		t.Fatalf("default costs not echoed: %+v", c)
	}
}

// TestAdviseIsPure: identical inputs produce deeply equal outputs — the
// property the recommendation cache is built on.
func TestAdviseIsPure(t *testing.T) {
	in := baseInputs()
	in.ObservedMTBCENanos = 7200e9
	in.FaultKnown = true
	in.Fault = faultmodel.FaultColumn
	in.FaultConfidence = 0.75
	a, err := Advise(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Advise(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Advise is not pure:\n a %+v\n b %+v", a, b)
	}
}
