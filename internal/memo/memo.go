// Package memo is the repository's one bounded memo: an LRU cache with
// in-flight coalescing. The baseline cache (core.ExperimentCache), the
// collective-schedule memo (internal/collectives), the Fig. 9 storm
// costs (internal/core) and the advisor's recommendation cache
// (internal/advise) are instances of it, and share its four
// guarantees:
//
//   - bounded: least-recently-used entries are evicted until the summed
//     cost fits the capacity, but the newest entry is always kept;
//   - coalesced: an absent key is built once, every other caller waits
//     for that build, and a waiter's context bounds its wait, never the
//     build;
//   - errors are never cached: the next lookup builds again;
//   - a flight is always completed and removed, whatever the builder
//     does, so a caller that recovers a builder panic and retries runs
//     the builder again instead of reading a dead flight's zero value.
package memo

import (
	"container/list"
	"context"
	"sync"
)

// ErrBuildAborted is what the waiters of a flight receive when its
// builder panicked (the panic itself propagates on the builder's
// goroutine). Like a recovered panic it is retryable: see jobs.Retryable.
var ErrBuildAborted error = abortedError{}

type abortedError struct{}

func (abortedError) Error() string   { return "memo: build aborted by a panic" }
func (abortedError) Retryable() bool { return true }

// Stats is a point-in-time snapshot of a cache's counters, named and
// tagged as the baseline cache (/metrics) and collectives (the benchmark) publish
// it. Sizes are in the cost function's unit: bytes for those two.
type Stats struct {
	// Entries is the number of resident entries, SizeBytes their summed
	// cost and CapBytes the configured bound.
	Entries   int   `json:"entries"`
	SizeBytes int64 `json:"size_bytes"`
	CapBytes  int64 `json:"cap_bytes"`
	// Hits counts lookups served from a resident entry, Coalesced those
	// that waited on a concurrent build of the same key instead of
	// building their own, Misses those that ran the builder.
	Hits      uint64 `json:"hits"`
	Coalesced uint64 `json:"coalesced"`
	Misses    uint64 `json:"misses"`
	// Evictions counts entries discarded to respect CapBytes.
	Evictions uint64 `json:"evictions"`
}

// Cache is a cost-bounded LRU with in-flight coalescing. All methods
// are safe for concurrent use.
type Cache[K comparable, V any] struct {
	cost func(V) int64

	mu      sync.Mutex
	st      Stats      // all but Entries, which Stats fills in
	ll      *list.List // front = most recently used; values are *entry[K, V]
	entries map[K]*list.Element
	flights map[K]*flight[V]
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// flight is one in-progress build, shared by every waiter for its key.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache bounded to capacity units of cost. A nil cost
// charges every entry 1, which makes capacity an entry count.
func New[K comparable, V any](capacity int64, cost func(V) int64) *Cache[K, V] {
	if cost == nil {
		cost = func(V) int64 { return 1 }
	}
	return &Cache[K, V]{
		cost:    cost,
		st:      Stats{CapBytes: capacity},
		ll:      list.New(),
		entries: map[K]*list.Element{},
		flights: map[K]*flight[V]{},
	}
}

// Get returns the resident value for key without building, and whether
// it was present. A present key counts as a hit and becomes the most
// recently used; an absent one counts nothing.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return v, false
	}
	c.ll.MoveToFront(el)
	c.st.Hits++
	return el.Value.(*entry[K, V]).val, true
}

// Add inserts v under key as the most recently used entry, replacing
// any resident value, and evicts from the old end until the bound holds.
func (c *Cache[K, V]) Add(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(key, v)
}

// addLocked is Add with c.mu held.
func (c *Cache[K, V]) addLocked(key K, v V) {
	cost := c.cost(v)
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry[K, V])
		c.st.SizeBytes += cost - e.cost
		e.val, e.cost = v, cost
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&entry[K, V]{key: key, val: v, cost: cost})
		c.st.SizeBytes += cost
	}
	for c.st.SizeBytes > c.st.CapBytes && c.ll.Len() > 1 {
		back := c.ll.Back()
		ev := back.Value.(*entry[K, V])
		c.ll.Remove(back)
		delete(c.entries, ev.key)
		c.st.SizeBytes -= ev.cost
		c.st.Evictions++
	}
}

// GetOrBuild returns the value for key, running build and inserting its
// result when the key is neither resident nor under construction. hit
// reports that this caller did not build: the value was resident, or
// another goroutine's build was waited on. err is the builder's error
// (not cached — the next lookup builds again), ctx.Err() when ctx
// expires while waiting on another goroutine's build, or
// ErrBuildAborted when that build panicked. The build itself is never
// interrupted by ctx: its result is inserted for later callers even if
// every waiter has given up. build runs outside the cache lock.
func (c *Cache[K, V]) GetOrBuild(ctx context.Context, key K, build func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.st.Hits++
		v = el.Value.(*entry[K, V]).val
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.st.Coalesced++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{}), err: ErrBuildAborted}
	c.flights[key] = f
	c.st.Misses++
	c.mu.Unlock()

	// The flight is completed and removed whatever build does: a panic
	// that the caller recovers must leave neither blocked waiters nor a
	// dead flight that answers the retry with a zero value.
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.addLocked(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = build()
	return f.val, false, f.err
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Entries = c.ll.Len()
	return st
}
