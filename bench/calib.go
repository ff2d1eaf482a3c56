package main

import (
	"math"
	"sync/atomic"
	"time"
)

// Speed calibration. The reference box is a shared 2-vCPU VM whose
// speed is not constant: after minutes of load it runs a third slower
// than when it starts, and from one quarter second to the next a fixed
// arithmetic loop takes anything from 1x to 2x. Ten runs of unchanged
// code therefore differ by 30-60 % in every raw time, which no
// regression bound survives.
//
// So every run measures the box while it measures the program: right
// after each op, on the client that ran it, a fixed kernel runs for
// about calibShare of the op's duration — a fixed number of iterations
// derived from that duration, so the work is decided before it is timed
// — and the run's speed factor is the kernel's measured time per
// iteration over its nominal time on a calm reference box. The samples
// are spread over the pass exactly as the ops are, so they weigh the
// box's states by how long the pass spent in each. Time metrics are
// reported divided by the factor (rates multiplied): "reference-box
// milliseconds". Raw values and the factor are in the report too.
//
// The kernel is part of the benchmark, so a change that claims a gain
// cannot touch it; it costs every commit the same 2 % of a core.

const (
	// calibShare is the kernel's share of each op's duration.
	calibShare = 0.02
	// calibNominalNs is one kernel iteration on the reference box at
	// full speed. Only ratios of speed factors matter between two runs;
	// this constant fixes what "reference-box milliseconds" means.
	calibNominalNs = 8.0
	// calibMinIters keeps a slice long enough (about 5 us) for the two
	// clock reads around it not to matter.
	calibMinIters = 512
)

var calibSink atomic.Uint64

// calibKernel does n iterations of integer mixing and a logarithm. It
// touches no memory, so what the program under test leaves in the
// caches cannot change its speed: only the box can.
func calibKernel(n int) {
	x := uint64(2685821657736338717)
	var f float64
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f += math.Log(float64(x>>11) + 1)
	}
	calibSink.Add(x + uint64(f))
}

// calibrator accumulates kernel slices; safe for concurrent clients.
type calibrator struct {
	iters, nanos atomic.Int64
}

// after runs the slice that follows an op (or a set-up) of duration d.
func (c *calibrator) after(d time.Duration) {
	n := int(float64(d) * calibShare / calibNominalNs)
	if n < calibMinIters {
		n = calibMinIters
	}
	t := time.Now()
	calibKernel(n)
	c.nanos.Add(int64(time.Since(t)))
	c.iters.Add(int64(n))
}

// factor is how much slower than the calm reference box the machine
// was over the calibrator's slices: 1 at full speed, 1.4 when a pass
// took 40 % longer for the box's reasons, not the program's.
func (c *calibrator) factor() float64 {
	if c.iters.Load() == 0 {
		return 1
	}
	return float64(c.nanos.Load()) / float64(c.iters.Load()) / calibNominalNs
}
