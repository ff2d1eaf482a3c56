package noise

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Arrivals models the CE arrival process on one node. Implementations
// draw successive inter-arrival gaps; per-node process state (e.g. the
// remaining length of a burst) lives in the caller-provided word so a
// single Arrivals value serves every node.
type Arrivals interface {
	// NextGap returns the time to the next CE, in nanoseconds.
	NextGap(src *rng.Source, state *uint64) int64
	// MeanGap returns the long-run mean inter-arrival time.
	MeanGap() float64
	fmt.Stringer
}

// perRun is implemented by arrival processes whose per-node state does
// not fit in the state word and lives in the process value instead
// (a fault-mode mixture's node table). CE and SharedCE draw from
// ForRun's result, so each run owns that state, needs no lock to reach
// it, and leaves it to the collector when the run is dropped. ForRun
// must yield the gaps the process itself would.
type perRun interface {
	ForRun() Arrivals
}

// ComponentGapper is implemented by composite arrival processes (such
// as fault-mode mixtures) whose components renew at different time
// scales. MaxComponentMeanGap returns the mean inter-arrival time of
// the slowest component. CE calibrates its saturation guard to this
// instead of the combined MeanGap: the combined mean is dominated by
// the fastest component, so a legitimate burst train from a rare slow
// mode could otherwise be misread as saturation.
type ComponentGapper interface {
	MaxComponentMeanGap() float64
}

// Poisson is the paper's arrival model: exponential inter-arrivals with
// the given mean (MTBCE), i.e. a homogeneous Poisson process.
type Poisson int64

// NextGap draws an exponential gap. A draw at or past 2^63 ns is
// MaxInt64 ("no further CE"): Go leaves that float conversion to the
// platform, and amd64 turns it into MinInt64.
func (p Poisson) NextGap(src *rng.Source, _ *uint64) int64 {
	g := src.Exp(float64(p))
	if g >= 0x1p63 {
		return math.MaxInt64
	}
	return int64(g)
}

// MeanGap returns the MTBCE.
func (p Poisson) MeanGap() float64 { return float64(p) }

func (p Poisson) String() string { return fmt.Sprintf("poisson(mtbce=%dns)", int64(p)) }

// after returns t+gap for a non-negative gap, saturating at MaxInt64
// so a node whose gaps reach past 2^63 ns never sees another CE.
func after(t, gap int64) int64 {
	if gap > math.MaxInt64-t {
		return math.MaxInt64
	}
	return t + gap
}
