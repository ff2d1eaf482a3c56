// Package tracegen builds synthetic MPI operation traces for the nine
// workloads the paper evaluates (Table I).
//
// The paper traced real runs of each application on a Cray XC40 and
// replayed/extrapolated them with LogGOPSim. Those traces are not
// available here, so this package substitutes communication skeletons:
// per-iteration loops of halo exchanges and collectives with
// computation grains, parameterized to match each application's known
// communication structure. The paper itself attributes the spread in CE
// sensitivity to one structural property — "the difference in collective
// frequency of each application" (§IV-C) — which is exactly what the
// skeletons control:
//
//   - LAMMPS-lj / LAMMPS-snap: 3D spatial decomposition, six-face halo,
//     thermodynamic allreduce only every ~50 steps. Loosely coupled —
//     the paper's least-affected workloads.
//   - LAMMPS-crack: small 2D crack-propagation problem, four-neighbor
//     halo, tiny timesteps with per-step thermo output. The paper's most
//     affected workload.
//   - LULESH: 27-point stencil (26 neighbours) on a cubic process grid
//     plus the per-step dt allreduce (dtcourant/dthydro). Tightly
//     coupled.
//   - HPCG: 26-neighbour halo for SpMV plus two dot-product allreduces
//     per CG iteration.
//   - CTH: six-face halo with large exchange volumes and a per-step
//     timestep-control allreduce.
//   - MILC: 4D lattice, eight-neighbour halo, CG solver with a
//     per-iteration dot product.
//   - miniFE: six-face halo plus two dot products per CG iteration.
//   - SPARC: six-face halo with large messages and a per-step residual
//     allreduce.
//
// All generators are deterministic in (name, ranks, iterations, seed).
package tracegen

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/rng"
	"repro/internal/trace"
)

const (
	us = int64(1000)
	ms = int64(1000 * 1000)
)

// Stencil selects the neighbour set of the Cartesian decomposition.
type Stencil int

// Stencil kinds.
const (
	// Faces exchanges with the 2*ndims face neighbours.
	Faces Stencil = iota
	// Full exchanges with all 3^ndims-1 neighbours (faces, edges,
	// corners) — the 27-point stencil pattern in 3D.
	Full
)

// Spec is a declarative workload skeleton.
type Spec struct {
	// Name is the workload identifier (Table I spelling, lower case).
	Name string
	// Dims is the dimensionality of the process grid (2, 3 or 4).
	Dims int
	// Stencil selects face-only or full-neighbourhood halo exchange.
	Stencil Stencil
	// HaloBytes is the per-neighbour message size for face neighbours.
	// Edge and corner messages (Full stencil) are scaled down by 16x
	// and 256x, as surface/line/point exchange volumes scale.
	HaloBytes int64
	// ComputeNs is the mean computation grain per iteration.
	ComputeNs int64
	// ComputeJitter is the relative iteration-to-iteration compute
	// imbalance (e.g. 0.02 = ±2%).
	ComputeJitter float64
	// AllreduceEvery performs a control allreduce every k-th iteration
	// (0 = never): timestep control, thermo output, residual checks.
	AllreduceEvery int
	// AllreduceBytes is the payload of the control allreduce.
	AllreduceBytes int64
	// DotsPerIter adds CG-style dot products: small allreduces, each
	// preceded by a fraction of the compute grain (ComputeNs is split
	// across the phases).
	DotsPerIter int
	// BcastSetup emits an input-deck broadcast before the first
	// iteration.
	BcastSetup int64
	// CubeOnly requires a perfect-power process grid (LULESH's cubic
	// domain decomposition).
	CubeOnly bool
}

// specs is the workload table. Compute grains and message sizes are
// order-of-magnitude estimates for the paper's problem sizes; the CE
// sensitivity ordering is driven by collective cadence, which follows
// each code's published structure.
var specs = []Spec{
	{
		Name: "lammps-lj", Dims: 3, Stencil: Faces, HaloBytes: 48 << 10,
		ComputeNs: 90 * ms, ComputeJitter: 0.02,
		AllreduceEvery: 50, AllreduceBytes: 64,
	},
	{
		Name: "lammps-snap", Dims: 3, Stencil: Faces, HaloBytes: 48 << 10,
		ComputeNs: 240 * ms, ComputeJitter: 0.02,
		AllreduceEvery: 50, AllreduceBytes: 64,
	},
	{
		Name: "lammps-crack", Dims: 2, Stencil: Faces, HaloBytes: 16 << 10,
		ComputeNs: 4 * ms, ComputeJitter: 0.03,
		AllreduceEvery: 1, AllreduceBytes: 64,
	},
	{
		Name: "lulesh", Dims: 3, Stencil: Full, HaloBytes: 24 << 10,
		ComputeNs: 18 * ms, ComputeJitter: 0.02,
		AllreduceEvery: 1, AllreduceBytes: 16,
		CubeOnly: true,
	},
	{
		Name: "hpcg", Dims: 3, Stencil: Full, HaloBytes: 12 << 10,
		ComputeNs: 60 * ms, ComputeJitter: 0.01,
		DotsPerIter: 2, AllreduceBytes: 8,
	},
	{
		Name: "cth", Dims: 3, Stencil: Faces, HaloBytes: 96 << 10,
		ComputeNs: 110 * ms, ComputeJitter: 0.03,
		AllreduceEvery: 1, AllreduceBytes: 8,
		BcastSetup: 1 << 20,
	},
	{
		Name: "milc", Dims: 4, Stencil: Faces, HaloBytes: 32 << 10,
		ComputeNs: 70 * ms, ComputeJitter: 0.01,
		AllreduceEvery: 1, AllreduceBytes: 8, DotsPerIter: 1,
	},
	{
		Name: "minife", Dims: 3, Stencil: Faces, HaloBytes: 8 << 10,
		ComputeNs: 45 * ms, ComputeJitter: 0.01,
		DotsPerIter: 2, AllreduceBytes: 8,
	},
	{
		Name: "sparc", Dims: 3, Stencil: Faces, HaloBytes: 64 << 10,
		ComputeNs: 95 * ms, ComputeJitter: 0.03,
		AllreduceEvery: 1, AllreduceBytes: 8,
		BcastSetup: 4 << 20,
	},
}

// Names returns the workload names in the paper's presentation order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Lookup returns the Spec for a workload name.
func Lookup(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("tracegen: unknown workload %q (have %v)", name, Names())
}

// PreferredRanks adjusts a target rank count to the workload's
// decomposition constraint: LULESH needs a perfect cube (the paper
// simulates 16,000 = 125x128 instead of 16,384 for the same reason);
// everything else accepts the target as-is.
func PreferredRanks(name string, target int) int {
	spec, err := Lookup(name)
	if err != nil || !spec.CubeOnly {
		return target
	}
	side := 1
	for (side+1)*(side+1)*(side+1) <= target {
		side++
	}
	return side * side * side
}

// Generate builds the named workload's trace.
func Generate(name string, ranks, iterations int, seed uint64) (*trace.Trace, error) {
	spec, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return FromSpec(spec, ranks, iterations, seed)
}

// FromSpec builds a trace from an explicit skeleton, for ablations and
// custom workloads: every rank of the skeleton's Plan, each in a slice
// of exactly its length.
func FromSpec(spec Spec, ranks, iterations int, seed uint64) (*trace.Trace, error) {
	p, err := NewPlan(spec, ranks, iterations, seed)
	if err != nil {
		return nil, err
	}
	tr := &trace.Trace{Name: spec.Name, Ops: make([][]trace.Op, ranks)}
	var scratch []trace.Op
	for r := range tr.Ops {
		scratch = p.AppendRank(scratch[:0], r)
		tr.Ops[r] = make([]trace.Op, len(scratch))
		copy(tr.Ops[r], scratch)
	}
	return tr, nil
}

// Plan is a skeleton validated at one scale: the process grid is
// factored and the arguments checked, so any rank's ops can be
// generated on their own, in any order, without the rest of the trace
// existing. A Plan is immutable and safe for concurrent use.
type Plan struct {
	spec       Spec
	ranks      int
	iterations int
	seed       uint64
	grid       grid
}

// NewPlan validates the skeleton at the given scale.
func NewPlan(spec Spec, ranks, iterations int, seed uint64) (*Plan, error) {
	if ranks < 2 {
		return nil, fmt.Errorf("tracegen: need at least 2 ranks, got %d", ranks)
	}
	if iterations < 1 {
		return nil, fmt.Errorf("tracegen: need at least 1 iteration, got %d", iterations)
	}
	if spec.Dims < 1 || spec.Dims > maxDims {
		return nil, fmt.Errorf("tracegen: dims must be 1..%d, got %d", maxDims, spec.Dims)
	}
	dims, err := gridDims(ranks, spec.Dims, spec.CubeOnly)
	if err != nil {
		return nil, fmt.Errorf("tracegen: %s: %w", spec.Name, err)
	}
	return &Plan{spec: spec, ranks: ranks, iterations: iterations, seed: seed, grid: newGrid(dims)}, nil
}

// AppendRank appends the ops of rank r, one of the plan's ranks, to dst
// and returns the extended slice. The ops depend only on the plan and r.
func (p *Plan) AppendRank(dst []trace.Op, r int) []trace.Op {
	if r < 0 || r >= p.ranks {
		panic(fmt.Sprintf("tracegen: rank %d outside plan of %d ranks", r, p.ranks))
	}
	spec := &p.spec
	src := rng.NewStream(p.seed, uint64(r))
	var nbuf [maxNeighbors]neighbor
	neighbors := p.grid.neighbors(nbuf[:], int32(r), spec.Stencil)
	if spec.BcastSetup > 0 {
		dst = append(dst, trace.Bcast(0, spec.BcastSetup))
	}
	for it := 0; it < p.iterations; it++ {
		// Split the compute grain across the communication phases:
		// one leading chunk plus one per dot product.
		phases := 1 + spec.DotsPerIter
		grain := jitter(src, spec.ComputeNs, spec.ComputeJitter) / int64(phases)
		dst = append(dst, trace.Calc(grain))
		// Halo exchange: post all receives, then all sends, then
		// wait for everything — the standard nonblocking pattern.
		req := int32(0)
		for _, nb := range neighbors {
			dst = append(dst, trace.Irecv(nb.rank, nb.bytes(spec.HaloBytes), 0, req))
			req++
		}
		for _, nb := range neighbors {
			dst = append(dst, trace.Isend(nb.rank, nb.bytes(spec.HaloBytes), 0, req))
			req++
		}
		dst = append(dst, trace.WaitAll())
		// CG-style dot products: compute phase then a small
		// allreduce, repeated.
		for d := 0; d < spec.DotsPerIter; d++ {
			dst = append(dst, trace.Calc(grain))
			dst = append(dst, trace.Allreduce(spec.AllreduceBytes))
		}
		// Control allreduce (dt, thermo, residual) every k-th
		// iteration.
		if spec.AllreduceEvery > 0 && (it+1)%spec.AllreduceEvery == 0 {
			dst = append(dst, trace.Allreduce(spec.AllreduceBytes))
		}
	}
	return dst
}

// jitter perturbs a base duration by +/- frac, deterministically.
func jitter(src *rng.Source, base int64, frac float64) int64 {
	if frac <= 0 {
		return base
	}
	return base + int64((src.Float64()*2-1)*frac*float64(base))
}

// gridDims factors ranks into ndims near-equal factors, largest first —
// the MPI_Dims_create contract. CubeOnly requires all factors equal.
func gridDims(ranks, ndims int, cubeOnly bool) ([]int, error) {
	if cubeOnly {
		side := 1
		for side*side*side < ranks {
			side++
		}
		if side*side*side != ranks {
			return nil, fmt.Errorf("%d ranks is not a perfect cube (use PreferredRanks)", ranks)
		}
		return []int{side, side, side}, nil
	}
	dims := make([]int, ndims)
	for i := range dims {
		dims[i] = 1
	}
	// Assign prime factors, largest first, to the currently smallest
	// dimension.
	for _, f := range primeFactors(ranks) {
		minIdx := 0
		for i := 1; i < ndims; i++ {
			if dims[i] < dims[minIdx] {
				minIdx = i
			}
		}
		dims[minIdx] *= f
	}
	sort.Sort(sort.Reverse(sort.IntSlice(dims)))
	return dims, nil
}

// primeFactors returns the prime factorization of n, largest first.
func primeFactors(n int) []int {
	var out []int
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			out = append(out, f)
			n /= f
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// maxDims bounds the process grid's dimensionality, so coordinates are
// fixed-size values; maxNeighbors is the full stencil's partner count
// at that bound.
const (
	maxDims      = 4
	maxNeighbors = 3*3*3*3 - 1
)

// coord is a grid coordinate or offset; entries past the grid's
// dimensionality are zero.
type coord [maxDims]int

// grid is a periodic Cartesian process grid of n dimensions.
type grid struct {
	n       int
	dims    coord
	strides coord
}

func newGrid(dims []int) grid {
	g := grid{n: len(dims)}
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		g.dims[i] = dims[i]
		g.strides[i] = s
		s *= dims[i]
	}
	return g
}

func (g *grid) coords(rank int32) coord {
	var c coord
	r := int(rank)
	for i := 0; i < g.n; i++ {
		c[i] = r / g.strides[i]
		r %= g.strides[i]
	}
	return c
}

func (g *grid) rank(c coord) int32 {
	r := 0
	for i := 0; i < g.n; i++ {
		r += ((c[i]%g.dims[i] + g.dims[i]) % g.dims[i]) * g.strides[i]
	}
	return int32(r)
}

// neighbor is one halo partner with its exchange-volume class.
type neighbor struct {
	rank  int32
	class int // 0 = face, 1 = edge, 2 = corner, ... (off-axis count - 1)
}

// bytes scales the face exchange volume by the neighbour class:
// faces move surfaces, edges move lines (16x smaller), corners move
// points (256x smaller).
func (n neighbor) bytes(faceBytes int64) int64 {
	b := faceBytes >> (4 * uint(n.class))
	if b < 8 {
		b = 8
	}
	return b
}

// neighbors writes the halo partners of a rank into buf's storage and
// returns them, deduplicated (wrapped dimensions of extent 1 or 2 can
// alias; the lowest class wins) and sorted by rank for determinism.
// Self-aliases are dropped.
func (g *grid) neighbors(buf []neighbor, rank int32, st Stencil) []neighbor {
	dst := buf[:0]
	c := g.coords(rank)
	var off coord
	switch st {
	case Faces:
		for i := 0; i < g.n; i++ {
			off[i] = 1
			dst = g.addNeighbor(dst, rank, c, off)
			off[i] = -1
			dst = g.addNeighbor(dst, rank, c, off)
			off[i] = 0
		}
	case Full:
		// Odometer over {-1,0,1}^n.
		for i := 0; i < g.n; i++ {
			off[i] = -1
		}
		for more := true; more; {
			dst = g.addNeighbor(dst, rank, c, off)
			more = false
			for i := g.n - 1; i >= 0 && !more; i-- {
				if off[i] < 1 {
					off[i]++
					more = true
				} else {
					off[i] = -1
				}
			}
		}
	}
	slices.SortFunc(dst, func(a, b neighbor) int { return cmp.Compare(a.rank, b.rank) })
	return dst
}

// addNeighbor adds the rank at offset off from c to dst, unless the
// offset is zero or wraps onto rank itself; a rank already listed keeps
// its lower class.
func (g *grid) addNeighbor(dst []neighbor, rank int32, c, off coord) []neighbor {
	cls := -1
	for i := 0; i < g.n; i++ {
		if off[i] != 0 {
			cls++
		}
		c[i] += off[i]
	}
	if cls < 0 {
		return dst
	}
	nr := g.rank(c)
	if nr == rank {
		return dst
	}
	for i := range dst {
		if dst[i].rank == nr {
			if cls < dst[i].class {
				dst[i].class = cls
			}
			return dst
		}
	}
	return append(dst, neighbor{rank: nr, class: cls})
}
