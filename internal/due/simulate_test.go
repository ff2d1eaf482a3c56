package due

// The Monte Carlo checkpoint/restart simulator the closed forms are
// tested against (the paper's §I contrast of CEs with DUEs). It covers
// the regimes where the first-order model breaks, a checkpoint interval
// comparable to the MTBF among them.

import (
	"fmt"

	"repro/internal/rng"
)

// simResult is a Monte Carlo outcome.
type simResult struct {
	// OverheadPct is the measured runtime inflation.
	OverheadPct float64
	// Failures counts the DUEs encountered.
	Failures int
	// Checkpoints counts completed checkpoint writes.
	Checkpoints int
	// WallNanos is the total simulated wall-clock time.
	WallNanos int64
}

// simulateDaly runs the checkpoint/restart loop for work nanoseconds of
// useful computation under exponential system failures, checkpointing
// at Daly's interval.
func simulateDaly(c Config, work int64, seed uint64) (*simResult, error) {
	return c.simulate(DalyInterval(c.Checkpoint, c.SystemMTBF()), work, seed)
}

// simulate is simulateDaly checkpointing every tau.
func (c Config) simulate(tau, work int64, seed uint64) (*simResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if work <= 0 {
		return nil, fmt.Errorf("due: work must be positive, got %d", work)
	}
	src := rng.New(seed)
	m := c.SystemMTBF()
	res := &simResult{}
	var wall int64
	var done int64 // completed, checkpointed work
	nextFailure := int64(src.Exp(m))
	if tau <= 0 {
		// Free checkpoints (Checkpoint == 0) make continuous
		// checkpointing optimal: a failure loses no work, only the
		// restart. Without this branch the segmented loop below would
		// make zero progress per iteration.
		for done < work {
			if wall+(work-done) <= nextFailure {
				wall += work - done
				done = work
				break
			}
			done += nextFailure - wall
			res.Failures++
			wall = nextFailure + c.Restart
			nextFailure = wall + int64(src.Exp(m))
		}
		res.WallNanos = wall
		res.OverheadPct = 100 * (float64(wall) - float64(work)) / float64(work)
		return res, nil
	}
	for done < work {
		segment := tau
		if remaining := work - done; remaining < segment {
			segment = remaining
		}
		// Attempt segment + checkpoint; a failure anywhere in it loses
		// the whole attempt back to the last checkpoint.
		attempt := segment + c.Checkpoint
		if remaining := work - done; remaining <= tau {
			// Final stretch needs no checkpoint after it.
			attempt = segment
		}
		if wall+attempt <= nextFailure {
			wall += attempt
			done += segment
			if attempt != segment {
				res.Checkpoints++
			}
			continue
		}
		// Failure mid-attempt: burn time to the failure, restart.
		res.Failures++
		wall = nextFailure + c.Restart
		nextFailure = wall + int64(src.Exp(m))
	}
	res.WallNanos = wall
	res.OverheadPct = 100 * (float64(wall) - float64(work)) / float64(work)
	return res, nil
}
