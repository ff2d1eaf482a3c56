// Package traceanalysis extracts the structural metrics of an MPI trace
// that determine its sensitivity to correctable-error detours: the
// collective cadence (the paper's §IV-C explanation for cross-workload
// variance, citing Ferreira et al. [19]), communication volumes, and
// compute imbalance. tracegen -stats and -analyze print it for a
// generated or a read trace; the analytic model (package predict) takes
// its synchronization interval from the workload skeleton instead
// (predict.SyncInterval).
package traceanalysis

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// Report summarizes one trace.
type Report struct {
	Ranks int
	Ops   int

	// Sends (blocking and nonblocking), Recvs (likewise) and
	// Collectives count those ops across all ranks.
	Sends, Recvs, Collectives int
	// ComputeNanos is the total compute time across all ranks.
	ComputeNanos int64
	// SendBytes is the total bytes posted by sends.
	SendBytes int64

	// ComputeNanosMean is the mean total compute time per rank.
	ComputeNanosMean float64
	// ComputeImbalancePct is (max-min)/mean of per-rank compute time,
	// in percent — the natural slack available to absorb detours.
	ComputeImbalancePct float64

	// CollectivesPerRank is the number of collective operations each
	// rank participates in (identical across ranks in a valid trace).
	CollectivesPerRank int
	// SyncIntervalNanos is the mean compute time between consecutive
	// collectives on rank 0 — the cadence at which local detours
	// serialize into the application's critical path. Zero when the
	// trace has no collectives.
	SyncIntervalNanos int64

	// MessagesPerRank is the mean point-to-point send count per rank.
	MessagesPerRank float64
	// BytesPerRank is the mean point-to-point bytes sent per rank.
	BytesPerRank float64
	// MeanMessageBytes is the mean p2p message size.
	MeanMessageBytes float64
	// MaxMessageBytes is the largest p2p message.
	MaxMessageBytes int64

	// SizeClasses counts messages in power-of-4 size classes starting
	// at 64 B: [<64B, <256B, <1K, <4K, <16K, <64K, <256K, >=256K].
	SizeClasses [8]int
}

// Analyze scans the trace. The trace may contain collectives (typical)
// or be pre-expanded (then collective metrics are zero and the p2p
// metrics include the expanded schedule).
func Analyze(t *trace.Trace) (*Report, error) {
	n := t.NumRanks()
	if n == 0 {
		return nil, trace.ErrEmptyTrace
	}
	r := &Report{Ranks: n}
	minCompute := math.Inf(1)
	maxCompute := math.Inf(-1)
	for rank, ops := range t.Ops {
		r.Ops += len(ops)
		var compute int64
		colls := 0
		for _, op := range ops {
			switch {
			case op.Kind == trace.OpCalc:
				compute += op.Dur
			case op.Kind == trace.OpSend || op.Kind == trace.OpIsend:
				r.Sends++
				r.SendBytes += op.Size
				if op.Size > r.MaxMessageBytes {
					r.MaxMessageBytes = op.Size
				}
				r.SizeClasses[sizeClass(op.Size)]++
			case op.Kind == trace.OpRecv || op.Kind == trace.OpIrecv:
				r.Recvs++
			case op.Kind.IsCollective():
				colls++
			}
		}
		r.ComputeNanos += compute
		r.Collectives += colls
		c := float64(compute)
		if c < minCompute {
			minCompute = c
		}
		if c > maxCompute {
			maxCompute = c
		}
		if rank == 0 {
			r.CollectivesPerRank = colls
			if colls > 0 {
				r.SyncIntervalNanos = compute / int64(colls)
			}
		}
	}
	r.ComputeNanosMean = float64(r.ComputeNanos) / float64(n)
	if r.ComputeNanosMean > 0 {
		r.ComputeImbalancePct = 100 * (maxCompute - minCompute) / r.ComputeNanosMean
	}
	r.MessagesPerRank = float64(r.Sends) / float64(n)
	r.BytesPerRank = float64(r.SendBytes) / float64(n)
	if r.Sends > 0 {
		r.MeanMessageBytes = float64(r.SendBytes) / float64(r.Sends)
	}
	return r, nil
}

// sizeClass buckets a message size: [<64B, <256B, <1K, <4K, <16K,
// <64K, <256K, >=256K].
func sizeClass(size int64) int {
	bound := int64(64)
	for i := 0; i < 7; i++ {
		if size < bound {
			return i
		}
		bound *= 4
	}
	return 7
}

// SizeClassLabel returns the human-readable label of a size class.
func SizeClassLabel(i int) string {
	labels := [8]string{"<64B", "<256B", "<1KiB", "<4KiB", "<16KiB", "<64KiB", "<256KiB", ">=256KiB"}
	if i < 0 || i >= len(labels) {
		return fmt.Sprintf("class(%d)", i)
	}
	return labels[i]
}

// CollectiveRatePerSecond returns the rank-0 collective rate implied by
// the trace (collectives per second of compute). Zero when the trace
// has no collectives or no compute.
func (r *Report) CollectiveRatePerSecond() float64 {
	if r.SyncIntervalNanos <= 0 {
		return 0
	}
	return 1e9 / float64(r.SyncIntervalNanos)
}
