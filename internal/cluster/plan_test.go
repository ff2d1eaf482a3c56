package cluster

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/tracegen"
)

func TestCellsDeterministicOrder(t *testing.T) {
	spec := Spec{Figures: []string{"6", "4"}, Workloads: []string{"minife", "hpcg"}}
	got := spec.Cells()
	want := []Cell{
		{Figure: "4", Workload: "minife"},
		{Figure: "4", Workload: "hpcg"},
		{Figure: "6", Workload: "minife"},
		{Figure: "6", Workload: "hpcg"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cells = %v, want %v", got, want)
	}
	// Enumeration is a pure function of the spec.
	if again := spec.Cells(); !reflect.DeepEqual(got, again) {
		t.Fatalf("second enumeration differs: %v vs %v", got, again)
	}
}

func TestCellsDefaults(t *testing.T) {
	cells := Spec{}.Cells()
	wantLen := 7 * len(tracegen.Names()) // figures 3..9 x full catalog
	if len(cells) != wantLen {
		t.Fatalf("default plan has %d cells, want %d", len(cells), wantLen)
	}
	if cells[0].Figure != "3" || cells[0].Workload != tracegen.Names()[0] {
		t.Fatalf("first cell %v, want fig3/%s", cells[0], tracegen.Names()[0])
	}
}

func TestCellSeedStableAndDistinct(t *testing.T) {
	a := CellSeed(1, "fig3/minife")
	if b := CellSeed(1, "fig3/minife"); a != b {
		t.Fatalf("CellSeed not stable: %d vs %d", a, b)
	}
	seen := map[uint64]string{}
	for _, cell := range (Spec{}).Cells() {
		s := CellSeed(42, cell.Key())
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %s and %s", prev, cell.Key())
		}
		seen[s] = cell.Key()
	}
}

func TestPlaceConsistency(t *testing.T) {
	workers := []string{"w1", "w2", "w3", "w4"}
	keys := tracegen.Names()

	if got := Place("minife", nil); got != "" {
		t.Fatalf("empty worker list placed on %q", got)
	}
	// Stable: same inputs, same placement, regardless of list order.
	for _, k := range keys {
		a := Place(k, workers)
		b := Place(k, []string{"w4", "w3", "w2", "w1"})
		if a != b {
			t.Fatalf("placement of %q depends on list order: %q vs %q", k, a, b)
		}
	}
	// Rendezvous property: removing one worker only moves the keys that
	// were placed on it.
	for _, gone := range workers {
		var rest []string
		for _, w := range workers {
			if w != gone {
				rest = append(rest, w)
			}
		}
		for _, k := range keys {
			before := Place(k, workers)
			after := Place(k, rest)
			if before != gone && after != before {
				t.Fatalf("removing %s moved %q from %s to %s", gone, k, before, after)
			}
		}
	}
}

// TestSpecValidate: the coordinator's admission is the shared sweep
// spec check under the service's default limits.
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"empty", Spec{}, true},
		{"explicit", Spec{Figures: []string{"3", "7"}, Scale: core.Paper, Workloads: []string{"minife"}}, true},
		{"one figure", Spec{Figure: "4"}, true},
		{"bad figure", Spec{Figures: []string{"2"}}, false},
		{"bad scale", Spec{Scale: core.Scale(7)}, false},
		{"bad workload", Spec{Workloads: []string{"doom"}}, false},
		{"figure and figures", Spec{Figure: "4", Figures: []string{"5"}}, false},
	}
	for _, tc := range cases {
		if err := tc.spec.Options().Validate(core.DefaultLimits()); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestSpecOptionsRoundTrip: a spec is the options a worker's driver
// runs under, field for field, and its wire form keeps the keys every
// journaled sweep_created record and /cluster/sweep body uses.
func TestSpecOptionsRoundTrip(t *testing.T) {
	spec := Spec{Figures: []string{"4"}, Scale: core.Paper, Nodes: 32, Iterations: 3, SpanNanos: 7, OpsBudget: 9,
		Reps: 2, Seed: 11, Workloads: []string{"minife"}}
	if back := Spec(spec.Options()); !reflect.DeepEqual(spec, back) {
		t.Fatalf("options round-trip drifted:\n spec %+v\n back %+v", spec, back)
	}
	wire, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"figures":["4"],"scale":"paper","nodes":32,"iters":3,"span_ns":7,"ops_budget":9,"reps":2,"seed":11,"workloads":["minife"]}`
	if string(wire) != want {
		t.Fatalf("wire form\n got %s\nwant %s", wire, want)
	}
	var decoded Spec
	if err := json.Unmarshal(wire, &decoded); err != nil || !reflect.DeepEqual(spec, decoded) {
		t.Fatalf("decode: %v\n spec %+v\n back %+v", err, spec, decoded)
	}
}

// TestSingleFigurePlansAsList: the singular spelling plans (and is
// journaled) as the one-element list.
func TestSingleFigurePlansAsList(t *testing.T) {
	got := Spec{Figure: "6", Workloads: []string{"minife"}}.withDefaults()
	if got.Figure != "" || !reflect.DeepEqual(got.Figures, []string{"6"}) {
		t.Fatalf("withDefaults kept figure=%q figures=%v", got.Figure, got.Figures)
	}
}
