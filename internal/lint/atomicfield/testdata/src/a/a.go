// Package a is an atomicfield fixture: every use of a package-level
// sync/atomic function is flagged; the typed wrappers are not.
package a

import "sync/atomic"

type counters struct {
	hits   uint64
	misses uint64
	plain  uint64 // never touched by sync/atomic: free to access
	typed  atomic.Uint64
}

func (c *counters) hit() {
	atomic.AddUint64(&c.hits, 1) // want "atomic.AddUint64 takes a field's address"
}

func (c *counters) miss() {
	atomic.AddUint64(&c.misses, 1) // want "atomic.AddUint64 takes a field's address"
}

func (c *counters) load() uint64 {
	return atomic.LoadUint64(&c.hits) + atomic.LoadUint64(&c.misses) // want "atomic.LoadUint64" "atomic.LoadUint64"
}

// The plain accesses below race with the atomic calls above. They are
// not reported themselves: the calls that make them races are.

func (c *counters) racyRead() uint64 {
	return c.hits
}

func (c *counters) racyWrite() {
	c.misses = 0
}

func (c *counters) racyIncrement() {
	c.hits++
}

func (c *counters) plainOK() uint64 {
	c.plain++
	return c.plain
}

func (c *counters) typedOK() uint64 {
	c.typed.Add(1)
	return c.typed.Load()
}

// A function value is the same API without the call.
var add = atomic.AddInt32 // want "atomic.AddInt32"

func fresh() *counters {
	return &counters{hits: 0, misses: 0}
}
