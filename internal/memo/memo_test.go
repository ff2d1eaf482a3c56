package memo

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// bytesCost charges a string value its length.
func bytesCost(s string) int64 { return int64(len(s)) }

// order lists the resident keys, most recently used first.
func order[K comparable, V any](c *Cache[K, V]) []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []K
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[K, V]).key)
	}
	return keys
}

// parked spins until n lookups have either started the build or joined
// its flight, so a test can release a gated builder knowing who waits.
func parked[K comparable, V any](c *Cache[K, V], n uint64) {
	for {
		if st := c.Stats(); st.Misses+st.Coalesced >= n {
			return
		}
		runtime.Gosched()
	}
}

func build[V any](v V) func() (V, error) {
	return func() (V, error) { return v, nil }
}

// fill builds each key of kvs in turn, alternating key and value.
func fill[V any](t *testing.T, c *Cache[string, V], kvs ...any) {
	t.Helper()
	for i := 0; i < len(kvs); i += 2 {
		if _, hit, err := c.GetOrBuild(context.Background(), kvs[i].(string), build(kvs[i+1].(V))); hit || err != nil {
			t.Fatalf("building %v: hit=%v err=%v", kvs[i], hit, err)
		}
	}
}

// touch looks up a resident key, which makes it the most recently used.
func touch[V any](t *testing.T, c *Cache[string, V], key string) V {
	t.Helper()
	v, hit, err := c.GetOrBuild(context.Background(), key, nil) // a hit never calls the builder
	if !hit || err != nil {
		t.Fatalf("touching %s: hit=%v err=%v", key, hit, err)
	}
	return v
}

// TestCache is the one suite for the one type: every guarantee the four
// clients rely on, stated once.
func TestCache(t *testing.T) {
	bg := context.Background()
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"miss builds, hit does not", func(t *testing.T) {
			c := New[string](100, bytesCost)
			v, hit, err := c.GetOrBuild(bg, "k", build("abc"))
			if v != "abc" || hit || err != nil {
				t.Fatalf("first lookup = %q, %v, %v; want a build", v, hit, err)
			}
			v, hit, err = c.GetOrBuild(bg, "k", func() (string, error) {
				t.Error("builder ran on a hit")
				return "", nil
			})
			if v != "abc" || !hit || err != nil {
				t.Fatalf("second lookup = %q, %v, %v; want a hit", v, hit, err)
			}
			want := Stats{Entries: 1, SizeBytes: 3, CapBytes: 100, Hits: 1, Misses: 1}
			if st := c.Stats(); st != want {
				t.Fatalf("stats = %+v, want %+v", st, want)
			}
		}},
		{"N callers coalesce onto one build and share its value", func(t *testing.T) {
			c := New[int, *int](4, nil)
			var builds atomic.Int64
			gate := make(chan struct{})
			const callers = 8
			got := make([]*int, callers)
			hits := make([]bool, callers)
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var err error
					got[i], hits[i], err = c.GetOrBuild(bg, 7, func() (*int, error) {
						builds.Add(1)
						<-gate
						return new(int), nil
					})
					if err != nil {
						t.Error(err)
					}
				}(i)
			}
			parked(c, callers)
			close(gate)
			wg.Wait()
			if n := builds.Load(); n != 1 {
				t.Fatalf("builder ran %d times for %d concurrent callers", n, callers)
			}
			built := 0
			for i := range got {
				if got[i] == nil || got[i] != got[0] {
					t.Fatalf("caller %d did not get the shared value", i)
				}
				if !hits[i] {
					built++
				}
			}
			if st := c.Stats(); built != 1 || st.Misses != 1 || st.Coalesced != callers-1 || st.Hits != 0 {
				t.Fatalf("%d callers report building; stats %+v", built, st)
			}
		}},
		{"eviction keeps the newest even when it alone exceeds the bound", func(t *testing.T) {
			c := New[string](10, bytesCost)
			fill(t, c, "a", "1234", "b", "1234", "c", "1234") // 12 > 10: a goes
			if got := order(c); !slices.Equal(got, []string{"c", "b"}) {
				t.Fatalf("after three builds: %v", got)
			}
			fill(t, c, "huge", "0123456789abcdef")
			want := Stats{Entries: 1, SizeBytes: 16, CapBytes: 10, Misses: 4, Evictions: 3}
			if st := c.Stats(); st != want || !slices.Equal(order(c), []string{"huge"}) {
				t.Fatalf("stats = %+v (order %v), want %+v", st, order(c), want)
			}
			fill(t, c, "d", "1") // the oversized entry is now the oldest: it goes
			if st := c.Stats(); st.Entries != 1 || st.SizeBytes != 1 || st.Evictions != 4 {
				t.Fatalf("after a small add: %+v", st)
			}
		}},
		{"LRU order survives touches", func(t *testing.T) {
			c := New[string, int](3, nil)
			fill(t, c, "a", 0, "b", 1, "c", 2)
			for _, k := range []string{"a", "b", "c"} {
				touch(t, c, k)
			}
			if got := order(c); !slices.Equal(got, []string{"c", "b", "a"}) {
				t.Fatalf("after touching a, b, c: %v", got)
			}
			touch(t, c, "a")
			fill(t, c, "d", 3) // b is now the least recently used
			if got := order(c); !slices.Equal(got, []string{"d", "a", "c"}) {
				t.Fatalf("after building d: %v", got)
			}
			if v := touch(t, c, "c"); v != 2 || c.Stats().Entries != 3 {
				t.Fatalf("c = %d, %d entries", v, c.Stats().Entries)
			}
		}},
		{"error is not cached", func(t *testing.T) {
			c := New[string](100, bytesCost)
			boom := errors.New("boom")
			if _, hit, err := c.GetOrBuild(bg, "k", func() (string, error) { return "junk", boom }); hit || !errors.Is(err, boom) {
				t.Fatalf("failing build: hit=%v err=%v", hit, err)
			}
			if c.Stats().Entries != 0 {
				t.Fatal("a failed build was inserted")
			}
			v, hit, err := c.GetOrBuild(bg, "k", build("ok"))
			if v != "ok" || hit || err != nil {
				t.Fatalf("retry = %q, %v, %v; want a second build", v, hit, err)
			}
			if st := c.Stats(); st.Misses != 2 || st.Entries != 1 {
				t.Fatalf("stats = %+v", st)
			}
		}},
		{"waiter's ctx expires, the build finishes and is inserted", func(t *testing.T) {
			c := New[string](100, bytesCost)
			gate := make(chan struct{})
			builderDone := make(chan struct{})
			go func() {
				defer close(builderDone)
				c.GetOrBuild(bg, "k", func() (string, error) { <-gate; return "late", nil })
			}()
			parked(c, 1)
			ctx, cancel := context.WithCancel(bg)
			waiterDone := make(chan error, 1)
			go func() {
				_, _, err := c.GetOrBuild(ctx, "k", build("never"))
				waiterDone <- err
			}()
			parked(c, 2)
			cancel()
			if err := <-waiterDone; !errors.Is(err, context.Canceled) {
				t.Fatalf("waiter returned %v, want context.Canceled", err)
			}
			close(gate)
			<-builderDone
			if v := touch(t, c, "k"); v != "late" {
				t.Fatalf("abandoned build inserted %q", v)
			}
		}},
		{"panic completes and clears the flight", func(t *testing.T) {
			c := New[string](100, bytesCost)
			gate := make(chan struct{})
			builderDone := make(chan any, 1)
			go func() {
				defer func() { builderDone <- recover() }()
				c.GetOrBuild(bg, "k", func() (string, error) { <-gate; panic("injected") })
			}()
			parked(c, 1)
			waiterDone := make(chan error, 1)
			go func() {
				_, _, err := c.GetOrBuild(bg, "k", build("never"))
				waiterDone <- err
			}()
			parked(c, 2)
			close(gate)
			if r := <-builderDone; r != "injected" {
				t.Fatalf("builder's caller recovered %v, want the builder's panic", r)
			}
			err := <-waiterDone
			var retry interface{ Retryable() bool }
			if !errors.Is(err, ErrBuildAborted) || !errors.As(err, &retry) || !retry.Retryable() {
				t.Fatalf("waiter returned %v, want a retryable ErrBuildAborted", err)
			}
			c.mu.Lock()
			flights := len(c.flights)
			c.mu.Unlock()
			if entries := c.Stats().Entries; flights != 0 || entries != 0 {
				t.Fatalf("%d flights and %d entries left behind by the panic", flights, entries)
			}
			v, hit, err := c.GetOrBuild(bg, "k", build("healed"))
			if v != "healed" || hit || err != nil {
				t.Fatalf("retry after the panic = %q, %v, %v; want a fresh build", v, hit, err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestHitDoesNotAllocate pins the schedule memo's hot path: a hit on a
// struct key, with a builder closure that captures it, allocates
// nothing.
func TestHitDoesNotAllocate(t *testing.T) {
	type key struct {
		kind       uint8
		n, rank    int32
		size, root int64
	}
	c := New[key](1<<20, func(v []int64) int64 { return int64(len(v)) * 8 })
	k := key{kind: 3, n: 64, rank: 5, size: 4096}
	ctx := context.Background()
	c.GetOrBuild(ctx, k, build(make([]int64, 40)))
	allocs := testing.AllocsPerRun(1000, func() {
		v, hit, err := c.GetOrBuild(ctx, k, func() ([]int64, error) { return make([]int64, k.n), nil })
		if !hit || err != nil || len(v) != 40 {
			t.Fatalf("lookup = %d values, hit %v, err %v", len(v), hit, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a GetOrBuild hit allocates %v times, want 0", allocs)
	}
}
