package tracegen

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/trace"
)

// refNeighbors is the neighbour enumeration as it stood before the
// fixed-size rewrite — map dedup, a coordinate slice per offset,
// sort.Slice — kept as the reference grid.neighbors is compared with.
func refNeighbors(dims []int, rank int32, st Stencil) []neighbor {
	strides := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	c := make([]int, len(dims))
	r := int(rank)
	for i := range dims {
		c[i] = r / strides[i]
		r %= strides[i]
	}
	rankOf := func(c []int) int32 {
		r := 0
		for i := range dims {
			r += ((c[i]%dims[i] + dims[i]) % dims[i]) * strides[i]
		}
		return int32(r)
	}
	seen := map[int32]neighbor{}
	add := func(off []int) {
		cls := -1
		for _, o := range off {
			if o != 0 {
				cls++
			}
		}
		if cls < 0 {
			return // zero offset
		}
		nc := make([]int, len(c))
		for i := range c {
			nc[i] = c[i] + off[i]
		}
		nr := rankOf(nc)
		if nr == rank {
			return
		}
		if old, ok := seen[nr]; !ok || cls < old.class {
			seen[nr] = neighbor{rank: nr, class: cls}
		}
	}
	switch st {
	case Faces:
		for i := range dims {
			off := make([]int, len(dims))
			off[i] = 1
			add(off)
			off[i] = -1
			add(off)
		}
	case Full:
		off := make([]int, len(dims))
		var walk func(i int)
		walk = func(i int) {
			if i == len(off) {
				add(append([]int(nil), off...))
				return
			}
			for _, o := range []int{-1, 0, 1} {
				off[i] = o
				walk(i + 1)
			}
			off[i] = 0
		}
		walk(0)
	}
	out := make([]neighbor, 0, len(seen))
	for _, nb := range seen {
		out = append(out, nb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rank < out[j].rank })
	return out
}

// Every rank of every workload's grid, at scales that exercise extent
// 1 and 2 aliasing (8 = 2x2x2, 27 = 3x3x3), uneven factors (128) and
// lulesh's cubes, has the reference's neighbours in the reference's
// order with the reference's classes. A 4D full stencil, which no
// workload uses, covers the odometer at the dimension bound.
func TestNeighborsMatchReference(t *testing.T) {
	specs := append([]Spec{{Name: "full4d", Dims: 4, Stencil: Full}}, specs...)
	for _, spec := range specs {
		for _, ranks := range []int{8, 27, 64, 125, 128} {
			dims, err := gridDims(ranks, spec.Dims, spec.CubeOnly)
			if err != nil {
				continue // lulesh off a cube
			}
			g := newGrid(dims)
			var buf [maxNeighbors]neighbor
			for r := int32(0); r < int32(ranks); r++ {
				want := refNeighbors(dims, r, spec.Stencil)
				got := g.neighbors(buf[:], r, spec.Stencil)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v rank %d:\n got %v\nwant %v", spec.Name, dims, r, got, want)
				}
			}
		}
	}
}

// A rank's ops come out the same alone, after other ranks, and in the
// whole trace; once dst has room, generating one allocates only its rng
// stream.
func TestAppendRankMatchesGenerate(t *testing.T) {
	for _, name := range Names() {
		ranks := PreferredRanks(name, 27)
		tr, err := Generate(name, ranks, 3, 9)
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := Lookup(name)
		p, err := NewPlan(spec, ranks, 3, 9)
		if err != nil {
			t.Fatal(err)
		}
		var buf []trace.Op
		for r := ranks - 1; r >= 0; r-- {
			buf = p.AppendRank(buf[:0], r)
			if !reflect.DeepEqual(buf, tr.Ops[r]) {
				t.Fatalf("%s rank %d: AppendRank differs from Generate", name, r)
			}
			if cap(tr.Ops[r]) != len(tr.Ops[r]) {
				t.Fatalf("%s rank %d: Generate kept %d slots for %d ops", name, r, cap(tr.Ops[r]), len(tr.Ops[r]))
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { buf = p.AppendRank(buf[:0], 1) }); allocs > 1 {
			t.Fatalf("%s: AppendRank into a grown buffer allocates %v times, want 1 (the rng stream)", name, allocs)
		}
	}
}
