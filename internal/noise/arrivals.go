package noise

import (
	"fmt"

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

// GapBatcher is implemented by arrival processes that can draw a block
// of gaps in one call. The draws must consume the rng stream exactly as
// the same number of successive NextGap calls would, so batched and
// unbatched generation yield bit-identical arrival schedules. CE uses
// this to amortize the per-arrival interface call.
type GapBatcher interface {
	AppendGaps(dst []int64, src *rng.Source, state *uint64, n int) []int64
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

// NextGap draws an exponential gap.
func (p Poisson) NextGap(src *rng.Source, _ *uint64) int64 {
	return int64(src.Exp(float64(p)))
}

// AppendGaps draws n exponential gaps in one call.
func (p Poisson) AppendGaps(dst []int64, src *rng.Source, _ *uint64, n int) []int64 {
	mean := float64(p)
	for i := 0; i < n; i++ {
		dst = append(dst, int64(src.Exp(mean)))
	}
	return dst
}

// MeanGap returns the MTBCE.
func (p Poisson) MeanGap() float64 { return float64(p) }

func (p Poisson) String() string { return fmt.Sprintf("poisson(mtbce=%dns)", int64(p)) }
