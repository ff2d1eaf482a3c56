package tracegen

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/collectives"
	"repro/internal/loggopsim"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

func TestNamesMatchPaper(t *testing.T) {
	want := []string{
		"lammps-lj", "lammps-snap", "lammps-crack", "lulesh",
		"hpcg", "cth", "milc", "minife", "sparc",
	}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestAllWorkloadsValidate(t *testing.T) {
	for _, name := range Names() {
		n := PreferredRanks(name, 64)
		tr, err := Generate(name, n, 3, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: generated trace invalid: %v", name, err)
		}
		if tr.NumRanks() != n {
			t.Fatalf("%s: %d ranks, want %d", name, tr.NumRanks(), n)
		}
		if tr.Name != name {
			t.Fatalf("%s: trace named %q", name, tr.Name)
		}
	}
}

func TestAllWorkloadsSimulate(t *testing.T) {
	for _, name := range Names() {
		n := PreferredRanks(name, 32)
		tr, err := Generate(name, n, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ex, err := collectives.Expand(tr, collectives.Config{})
		if err != nil {
			t.Fatalf("%s: expand: %v", name, err)
		}
		res, err := loggopsim.Simulate(ex, loggopsim.Config{Net: netmodel.CrayXC40()})
		if err != nil {
			t.Fatalf("%s: simulate: %v", name, err)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%s: zero makespan", name)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a, err := Generate("hpcg", 27, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("hpcg", 27, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c, err := Generate("hpcg", 27, 3, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestPreferredRanksLULESH(t *testing.T) {
	cases := map[int]int{
		16384: 15625, // 25^3, the cube closest below 16,384
		8192:  8000,  // 20^3
		4096:  4096,  // 16^3 is exact
		1000:  1000,  // 10^3 exact
		64:    64,    // 4^3 exact
		100:   64,
	}
	for target, want := range cases {
		if got := PreferredRanks("lulesh", target); got != want {
			t.Fatalf("PreferredRanks(lulesh, %d) = %d, want %d", target, got, want)
		}
	}
	// Non-cubic workloads pass through.
	if got := PreferredRanks("hpcg", 100); got != 100 {
		t.Fatalf("PreferredRanks(hpcg, 100) = %d", got)
	}
}

func TestLULESHRejectsNonCube(t *testing.T) {
	if _, err := Generate("lulesh", 100, 2, 1); err == nil {
		t.Fatal("non-cube rank count accepted for lulesh")
	}
}

func TestBadArgs(t *testing.T) {
	if _, err := Generate("hpcg", 1, 2, 1); err == nil {
		t.Fatal("1 rank accepted")
	}
	if _, err := Generate("hpcg", 8, 0, 1); err == nil {
		t.Fatal("0 iterations accepted")
	}
	if _, err := FromSpec(Spec{Name: "x", Dims: 7}, 8, 1, 1); err == nil {
		t.Fatal("dims=7 accepted")
	}
}

func TestCollectiveCadence(t *testing.T) {
	// lammps-lj: allreduce every 50 iterations; over 100 iterations,
	// exactly 2 per rank. lulesh: every iteration.
	lj, err := Generate("lammps-lj", 8, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := countKind(lj.Ops[0], trace.OpAllreduce); got != 2 {
		t.Fatalf("lammps-lj allreduces = %d, want 2", got)
	}
	lul, err := Generate("lulesh", 8, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := countKind(lul.Ops[0], trace.OpAllreduce); got != 10 {
		t.Fatalf("lulesh allreduces = %d, want 10", got)
	}
	// hpcg: 2 dot products per iteration, no control allreduce.
	hp, err := Generate("hpcg", 8, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := countKind(hp.Ops[0], trace.OpAllreduce); got != 20 {
		t.Fatalf("hpcg allreduces = %d, want 20", got)
	}
}

func countKind(ops []trace.Op, k trace.OpKind) int {
	n := 0
	for _, op := range ops {
		if op.Kind == k {
			n++
		}
	}
	return n
}

func TestStencilNeighborCounts(t *testing.T) {
	// On a 4x4x4 grid, faces = 6 neighbours, full = 26.
	g := newGrid([]int{4, 4, 4})
	if got := len(g.neighbors(nil, 0, Faces)); got != 6 {
		t.Fatalf("3D faces = %d, want 6", got)
	}
	if got := len(g.neighbors(nil, 0, Full)); got != 26 {
		t.Fatalf("3D full = %d, want 26", got)
	}
	// 4D faces = 8 (MILC).
	g4 := newGrid([]int{2, 2, 2, 2})
	if got := len(g4.neighbors(nil, 0, Faces)); got > 8 {
		t.Fatalf("4D faces = %d, want <= 8", got)
	}
}

func TestNeighborSymmetry(t *testing.T) {
	g := newGrid([]int{3, 4, 5})
	for r := int32(0); r < 60; r++ {
		for _, nb := range g.neighbors(nil, r, Full) {
			found := false
			for _, back := range g.neighbors(nil, nb.rank, Full) {
				if back.rank == r {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("neighbor relation not symmetric: %d -> %d", r, nb.rank)
			}
		}
	}
}

func TestNeighborClassesScaleBytes(t *testing.T) {
	face := neighbor{class: 0}
	edge := neighbor{class: 1}
	corner := neighbor{class: 2}
	b := int64(64 << 10)
	if face.bytes(b) != b {
		t.Fatal("face bytes scaled")
	}
	if edge.bytes(b) != b/16 {
		t.Fatalf("edge bytes = %d, want %d", edge.bytes(b), b/16)
	}
	if corner.bytes(b) != b/256 {
		t.Fatalf("corner bytes = %d, want %d", corner.bytes(b), b/256)
	}
	if (neighbor{class: 8}).bytes(8) < 8 {
		t.Fatal("bytes floor violated")
	}
}

func TestGridDims(t *testing.T) {
	cases := []struct {
		n, ndims int
		want     []int
	}{
		{64, 3, []int{4, 4, 4}},
		{100, 2, []int{10, 10}},
		{24, 3, []int{4, 3, 2}},
		{17, 2, []int{17, 1}},
		{16384, 3, []int{32, 32, 16}},
	}
	for _, c := range cases {
		got, err := gridDims(c.n, c.ndims, false)
		if err != nil {
			t.Fatalf("gridDims(%d,%d): %v", c.n, c.ndims, err)
		}
		prod := 1
		for _, d := range got {
			prod *= d
		}
		if prod != c.n {
			t.Fatalf("gridDims(%d,%d) = %v, product %d", c.n, c.ndims, got, prod)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("gridDims(%d,%d) = %v, want %v", c.n, c.ndims, got, c.want)
		}
	}
}

func TestCoordsRankRoundTrip(t *testing.T) {
	g := newGrid([]int{3, 5, 7})
	for r := int32(0); r < 105; r++ {
		if got := g.rank(g.coords(r)); got != r {
			t.Fatalf("coords/rank round trip failed for %d: %d", r, got)
		}
	}
}

// Property: any valid (workload, ranks, iters) combination yields a
// structurally valid trace whose collectives agree across ranks.
func TestQuickGeneratedTracesValid(t *testing.T) {
	names := Names()
	f := func(nameSel, ranksRaw, itersRaw uint8, seed uint64) bool {
		name := names[int(nameSel)%len(names)]
		ranks := PreferredRanks(name, 2+int(ranksRaw)%62)
		if ranks < 2 {
			ranks = 8
		}
		iters := 1 + int(itersRaw)%5
		tr, err := Generate(name, ranks, iters, seed)
		if err != nil {
			return false
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeJitterBounded(t *testing.T) {
	spec, err := Lookup("cth")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate("cth", 8, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	phases := int64(1 + spec.DotsPerIter)
	for _, op := range tr.Ops[0] {
		if op.Kind != trace.OpCalc {
			continue
		}
		lo := int64(float64(spec.ComputeNs)*(1-spec.ComputeJitter))/phases - 1
		hi := int64(float64(spec.ComputeNs)*(1+spec.ComputeJitter))/phases + 1
		if op.Dur < lo || op.Dur > hi {
			t.Fatalf("calc %d outside jitter bounds [%d,%d]", op.Dur, lo, hi)
		}
	}
}

func BenchmarkGenerateLULESH1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate("lulesh", 1000, 10, 1); err != nil {
			b.Fatal(err)
		}
	}
}
