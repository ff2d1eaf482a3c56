// Package due models detected uncorrectable errors (DUEs) and
// checkpoint/restart, the failure class the paper contrasts correctable
// errors against: "correctable error rates are 20 times higher than
// uncorrectable errors" (§I), but each DUE costs a restart from the
// last checkpoint rather than a sub-second logging detour.
//
// The package provides the standard first-order machinery — Young's and
// Daly's optimal checkpoint intervals and Daly's exponential-model
// expected completion time — plus a Monte Carlo simulator that
// validates the closed forms and covers the regimes where they break
// (checkpoint interval comparable to the MTBF). Together with package
// predict this lets a deployment compare its CE-logging overhead
// against its DUE/restart overhead on equal footing.
package due

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Config describes a checkpointing deployment.
type Config struct {
	// NodeMTBF is the per-node mean time between DUE-class failures,
	// ns. The system-level MTBF is NodeMTBF/Nodes (failures are
	// independent and exponential).
	NodeMTBF int64
	// Nodes is the machine size.
	Nodes int
	// Checkpoint is the time to write one checkpoint (delta), ns.
	Checkpoint int64
	// Restart is the time to restore after a failure (R), ns.
	Restart int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NodeMTBF <= 0 {
		return fmt.Errorf("due: node MTBF must be positive, got %d", c.NodeMTBF)
	}
	if c.Nodes < 1 {
		return fmt.Errorf("due: nodes must be >= 1, got %d", c.Nodes)
	}
	if c.Checkpoint < 0 || c.Restart < 0 {
		return fmt.Errorf("due: negative time parameter: %+v", c)
	}
	return nil
}

// SystemMTBF returns the machine-level mean time between failures.
func (c Config) SystemMTBF() float64 {
	return float64(c.NodeMTBF) / float64(c.Nodes)
}

// YoungInterval returns Young's first-order optimal checkpoint
// interval: sqrt(2 * delta * M).
func YoungInterval(checkpoint int64, systemMTBF float64) int64 {
	if checkpoint <= 0 || systemMTBF <= 0 {
		return 0
	}
	return int64(math.Sqrt(2 * float64(checkpoint) * systemMTBF))
}

// DalyInterval returns Daly's higher-order optimal interval for the
// exponential model. For delta < M/2 it is
//
//	tau = sqrt(2 delta M) * (1 + sqrt(delta/(2M))/3 + delta/(9M)) - delta
//
// and M otherwise (checkpointing that expensive cannot pay off more
// than once per failure).
func DalyInterval(checkpoint int64, systemMTBF float64) int64 {
	d := float64(checkpoint)
	m := systemMTBF
	if d <= 0 || m <= 0 {
		return 0
	}
	if d >= m/2 {
		return int64(m)
	}
	x := math.Sqrt(2 * d * m)
	tau := x*(1+math.Sqrt(d/(2*m))/3+d/(9*m)) - d
	if tau < 1 {
		tau = 1
	}
	return int64(tau)
}

// ExpectedOverheadPct returns the percentage runtime inflation from
// checkpointing, failures and rework under Daly's exponential model:
//
//	T(W) = M e^{R/M} (e^{(tau+delta)/M} - 1) W / tau
//
// so overhead% = 100 (T/W - 1), at Daly's interval.
func (c Config) ExpectedOverheadPct() (float64, error) {
	return c.overheadPct(DalyInterval(c.Checkpoint, c.SystemMTBF()))
}

// overheadPct is ExpectedOverheadPct at checkpoint interval tau.
func (c Config) overheadPct(interval int64) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	m := c.SystemMTBF()
	tau := float64(interval)
	delta := float64(c.Checkpoint)
	r := float64(c.Restart)
	if tau <= 0 {
		// Free checkpoints (delta == 0) drive Daly's optimum to zero:
		// continuous checkpointing, where the tau -> 0 limit of the
		// model leaves restarts as the only overhead.
		return 100 * (math.Exp(r/m) - 1), nil
	}
	perWork := m * math.Exp(r/m) * (math.Exp((tau+delta)/m) - 1) / tau
	return 100 * (perWork - 1), nil
}

// SimResult is a Monte Carlo outcome.
type SimResult struct {
	// OverheadPct is the measured runtime inflation.
	OverheadPct float64
	// Failures counts the DUEs encountered.
	Failures int
	// Checkpoints counts completed checkpoint writes.
	Checkpoints int
	// WallNanos is the total simulated wall-clock time.
	WallNanos int64
}

// Simulate runs the checkpoint/restart loop for work nanoseconds of
// useful computation under exponential system failures, checkpointing
// at Daly's interval.
func Simulate(c Config, work int64, seed uint64) (*SimResult, error) {
	return c.simulate(DalyInterval(c.Checkpoint, c.SystemMTBF()), work, seed)
}

// simulate is Simulate checkpointing every tau.
func (c Config) simulate(tau, work int64, seed uint64) (*SimResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if work <= 0 {
		return nil, fmt.Errorf("due: work must be positive, got %d", work)
	}
	src := rng.New(seed)
	m := c.SystemMTBF()
	res := &SimResult{}
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
