// Package extrapolate scales a p-rank trace to k*p ranks, mirroring
// LogGOPSim's trace extrapolation.
//
// The paper collects traces at 125/128 ranks and simulates systems of up
// to 16,384 nodes by extrapolation (§III-C): collective operations are
// regenerated with *exact* communication patterns at the larger size,
// while point-to-point communication is approximated by replicating the
// traced pattern. This package follows the same contract:
//
//   - each of the k groups receives a copy of the original per-rank
//     operation streams, with point-to-point peers remapped into the
//     group (peer -> group*p + peer), preserving the traced
//     communication topology within every group;
//   - collective ops are left as logical collectives spanning all k*p
//     ranks; their exact expansion happens later (collectives.Expand),
//     so extrapolated collectives are exact by construction, as in
//     LogGOPSim;
//   - rooted collectives keep their original root rank (which lies in
//     group 0), so all ranks agree on the root.
package extrapolate

import (
	"fmt"

	"repro/internal/trace"
)

// Extrapolate returns a trace with factor*p ranks built from the p-rank
// input. factor must be >= 1; factor == 1 returns a deep copy.
func Extrapolate(t *trace.Trace, factor int) (*trace.Trace, error) {
	p := t.NumRanks()
	if p == 0 {
		return nil, trace.ErrEmptyTrace
	}
	if factor < 1 {
		return nil, fmt.Errorf("extrapolate: factor must be >= 1, got %d", factor)
	}
	if factor == 1 {
		return t.Clone(), nil
	}
	out := &trace.Trace{
		Name: fmt.Sprintf("%s-x%d", t.Name, factor),
		Ops:  make([][]trace.Op, p*factor),
	}
	for g := 0; g < factor; g++ {
		base := int32(g * p)
		for r := 0; r < p; r++ {
			src := t.Ops[r]
			dst := make([]trace.Op, len(src))
			for i, op := range src {
				switch op.Kind {
				case trace.OpSend, trace.OpIsend, trace.OpRecv, trace.OpIrecv:
					op.Peer += base
				}
				// Collective roots are global ranks; keep them as
				// traced so every group agrees on a single root.
				dst[i] = op
			}
			out.Ops[int(base)+r] = dst
		}
	}
	return out, nil
}
