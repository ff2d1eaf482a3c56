package memo

import (
	"context"
	"errors"
	"testing"
)

// refLRU is the test-only reference the cache is fuzzed against: a
// slice, most recently used first, searched and shifted linearly.
type refLRU struct {
	cap   int64
	items []refItem
	stats Stats
}

type refItem struct {
	key  uint8
	val  uint32
	cost int64
}

// fuzzCost charges a value by its low three bits, so a program picks
// each entry's cost and the high bits tell successive values apart.
// Against fuzzCap, several small entries fit, a free one never forces an
// eviction and the largest exceeds the bound on its own.
func fuzzCost(v uint32) int64 { return [8]int64{0, 1, 1, 2, 2, 3, 5, 16}[v&7] }

const fuzzCap = 12

func (r *refLRU) find(key uint8) int {
	for i, it := range r.items {
		if it.key == key {
			return i
		}
	}
	return -1
}

// touch moves item i to the front.
func (r *refLRU) touch(i int) {
	it := r.items[i]
	copy(r.items[1:i+1], r.items[:i])
	r.items[0] = it
}

func (r *refLRU) get(key uint8) (uint32, bool) {
	i := r.find(key)
	if i < 0 {
		return 0, false
	}
	r.touch(i)
	r.stats.Hits++
	return r.items[0].val, true
}

func (r *refLRU) add(key uint8, val uint32) {
	if i := r.find(key); i >= 0 {
		r.touch(i)
		r.items[0].val, r.items[0].cost = val, fuzzCost(val)
	} else {
		r.items = append([]refItem{{key, val, fuzzCost(val)}}, r.items...)
	}
	for r.size() > r.cap && len(r.items) > 1 {
		r.items = r.items[:len(r.items)-1]
		r.stats.Evictions++
	}
}

func (r *refLRU) size() (n int64) {
	for _, it := range r.items {
		n += it.cost
	}
	return n
}

// FuzzCacheMatchesModel drives the cache and the slice-based reference
// with the same byte program and requires them to agree after every
// step on contents, recency order, size and every counter. A program
// is a sequence of ops, one byte selecting the op (mod 4) and the key
// (bits 2-4, eight keys), a second byte the value's cost:
//
//	0  Get
//	1  Add
//	2  GetOrBuild with a builder that succeeds
//	3  GetOrBuild with a builder that fails (nothing may be inserted)
//
// against the small capacity fuzzCap (see fuzzCost). Coalescing is not
// reachable from one goroutine: its counter must stay zero here and
// TestCache covers it.
func FuzzCacheMatchesModel(f *testing.F) { f.Fuzz(runCacheProgram) }

func runCacheProgram(t *testing.T, prog []byte) {
	c := New[uint8](fuzzCap, fuzzCost)
	ref := &refLRU{cap: fuzzCap}
	ctx := context.Background()
	errBuild := errors.New("injected build failure")
	var serial uint32
	for step := 0; len(prog) >= 2; step++ {
		op, key := prog[0]%4, prog[0]>>2&7
		serial++
		val := serial<<3 | uint32(prog[1]&7)
		prog = prog[2:]
		switch op {
		case 0:
			got, ok := c.Get(key)
			want, wantOK := ref.get(key)
			if got != want || ok != wantOK {
				t.Fatalf("step %d: Get(%d) = %d, %v; model %d, %v", step, key, got, ok, want, wantOK)
			}
		case 1:
			c.Add(key, val)
			ref.add(key, val)
		case 2, 3:
			fail := op == 3
			got, hit, err := c.GetOrBuild(ctx, key, func() (uint32, error) {
				if fail {
					return val, errBuild
				}
				return val, nil
			})
			want, wantHit := ref.get(key)
			if !wantHit {
				ref.stats.Misses++
				want = val
				if !fail {
					ref.add(key, val)
				}
			}
			if wantErr := fail && !wantHit; got != want || hit != wantHit || (err != nil) != wantErr {
				t.Fatalf("step %d: GetOrBuild(%d, fail=%v) = %d, %v, %v; model %d, %v", step, key, fail, got, hit, err, want, wantHit)
			}
		}

		want := ref.stats
		want.Entries, want.SizeBytes, want.CapBytes = len(ref.items), ref.size(), fuzzCap
		if st := c.Stats(); st != want {
			t.Fatalf("step %d: stats %+v, model %+v", step, st, want)
		}
		if n := c.Len(); n != len(ref.items) {
			t.Fatalf("step %d: Len %d, model %d", step, n, len(ref.items))
		}
		i := 0
		for el := c.ll.Front(); el != nil; el, i = el.Next(), i+1 {
			e := el.Value.(*entry[uint8, uint32])
			if it := ref.items[i]; e.key != it.key || e.val != it.val || e.cost != it.cost {
				t.Fatalf("step %d: position %d holds %+v, model %+v", step, i, *e, it)
			}
			if c.entries[e.key] != el {
				t.Fatalf("step %d: index for key %d does not point at its list element", step, e.key)
			}
		}
		if len(c.entries) != i || len(c.flights) != 0 {
			t.Fatalf("step %d: %d indexed keys for %d listed, %d flights left", step, len(c.entries), i, len(c.flights))
		}
	}
}
