package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/faultmodel"
	"repro/internal/mca"
	"repro/internal/memo"
	"repro/internal/systems"
)

// faultMixMTBCE is the aggregate per-node MTBCE the fault-mix figures
// run at before scale compensation: 3.6 s, the middle point of the
// Fig. 6 extreme-rate study, where the logging modes are clearly
// separated but the software rows are not yet saturated.
const faultMixMTBCE = 3600 * nsPerMs

// fig8Cells sweeps application overhead across fault-mix compositions:
// every systems.FaultMixes preset (field DDR4, high particle flux,
// heavy DIMM skew, storm-prone row bursts) under the three logging
// modes at an exascale node count. The homogeneous-Poisson rows of
// Figs. 4-6 assume every node errs alike; this figure shows how far a
// field-realistic mixture moves the tail.
func fig8Cells(_ context.Context, o Options) ([]cell, error) {
	var out []cell
	for _, mix := range systems.FaultMixes() {
		out = o.modeCells(out, exascaleNodes, mix.Name, faultMixMTBCE, &mix.Spec)
	}
	return out, nil
}

// fig9BurstLens are the mean row-fault train lengths the storm-tail
// figure sweeps. 1 is the no-burst baseline; 64 reliably trips the
// Linux CMCI storm threshold.
var fig9BurstLens = []float64{1, 4, 16, 64}

// fig9Spec is the storm-tail mixture at one burst intensity: a
// row-fault train component over a single-cell background.
func fig9Spec(burstLen float64) faultmodel.Spec {
	row := faultmodel.Mode{Kind: "row", Weight: 0.7}
	if burstLen > 1 {
		row.BurstLen = burstLen
		row.BurstGapNanos = nsPerMs
	}
	return faultmodel.Spec{
		MTBCENanos: faultMixMTBCE,
		Modes: []faultmodel.Mode{
			{Kind: "cell", Weight: 0.3},
			row,
		},
	}
}

// fig9PerEvent is one precomputed per-CE handling cost of the
// storm-tail figure.
type fig9PerEvent struct {
	burstLen float64
	label    string
	mode     mca.Mode
	nanos    int64
}

// fig9Memo holds the storm costs of the 16 most recently used seeds (an
// internal/memo cache at unit cost): a campaign asks for one seed
// across all its cells, a daemon for the seeds of the sweeps in flight.
// The slices it hands out are shared: callers do not modify them.
var fig9Memo = memo.New[uint64, []fig9PerEvent](16, nil)

// stormCosts returns the per-CE handling cost of every (burst
// intensity, logging path) cell of Fig. 9: compute derives them by
// running the node-level mca model under the mixture's burst train. They
// depend only on the seed, so every cell of a figure — one per workload
// when a cluster shards it — reads them from m instead of re-running
// the eight storms; concurrent callers for one seed share one
// computation.
// ctx bounds this caller's wait, not the computation: callers with
// other contexts are waiting on it too, and it is a quarter second.
func stormCosts(ctx context.Context, m *memo.Cache[uint64, []fig9PerEvent], seed uint64, compute func(context.Context, uint64) ([]fig9PerEvent, error)) ([]fig9PerEvent, error) {
	out, _, err := m.GetOrBuild(ctx, seed, func() ([]fig9PerEvent, error) {
		return compute(context.WithoutCancel(ctx), seed)
	})
	return out, err
}

// stormPerEvents runs the eight independent storms of one seed — the
// software path with the CMCI storm mitigation armed, the firmware path
// paying its SMI per event.
func stormPerEvents(ctx context.Context, seed uint64) ([]fig9PerEvent, error) {
	var out []fig9PerEvent
	for _, bl := range fig9BurstLens {
		out = append(out,
			fig9PerEvent{burstLen: bl, label: systems.SoftwareCMCI.Name, mode: mca.Software},
			fig9PerEvent{burstLen: bl, label: systems.FirmwareEMCA.Name, mode: mca.Firmware})
	}
	err := fanOut(ctx, len(out), runtime.GOMAXPROCS(0), func(i int) error {
		pe := &out[i]
		var err error
		pe.nanos, err = fig9Spec(pe.burstLen).StormPerEventNanos(seed, pe.mode)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fig9Cells sweeps storm-tail sensitivity: burst intensity of a
// row-fault train against Software (CMCI, storm mitigation armed) vs
// Firmware (EMCA, SMI per event) logging. As trains lengthen, the
// software path's effective per-CE cost collapses into polls while the
// firmware path keeps paying per event — the storm mitigation's value is
// the gap between the two curves.
func fig9Cells(ctx context.Context, o Options) ([]cell, error) {
	perEvents, err := stormCosts(ctx, fig9Memo, o.Seed, stormPerEvents)
	if err != nil {
		return nil, err
	}
	var out []cell
	for _, pe := range perEvents {
		c := o.cell(exascaleNodes, fmt.Sprintf("burst=%g", pe.burstLen), pe.label, faultMixMTBCE, pe.nanos)
		spec := fig9Spec(pe.burstLen)
		c.mix = &spec
		out = append(out, c)
	}
	return out, nil
}
