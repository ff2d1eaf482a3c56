package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/faultmodel"
	"repro/internal/mca"
	"repro/internal/memo"
	"repro/internal/noise"
	"repro/internal/systems"
)

// faultMixMTBCE is the aggregate per-node MTBCE the fault-mix figures
// run at before scale compensation: 3.6 s, the middle point of the
// Fig. 6 extreme-rate study, where the logging modes are clearly
// separated but the software rows are not yet saturated.
const faultMixMTBCE = 3600 * nsPerMs

// Figure8 sweeps application overhead across fault-mix compositions:
// every systems.FaultMixes preset (field DDR4, high particle flux,
// heavy DIMM skew, storm-prone row bursts) under the three logging
// modes at an exascale node count. The homogeneous-Poisson rows of
// Figs. 4-6 assume every node errs alike; this figure shows how far a
// field-realistic mixture moves the tail.
func Figure8(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	f := &Figure{ID: "fig8", Title: "application overhead vs fault-mix composition"}
	const paperNodes = 16384
	cache := newExpCache(opts)
	var tasks []rowTask
	for _, wl := range opts.Workloads {
		nodes, comp := opts.nodesFor(paperNodes)
		e, err := cache.get(wl, nodes)
		if err != nil {
			return nil, err
		}
		mtbce := compensateMTBCE(faultMixMTBCE, comp)
		for _, mix := range systems.FaultMixes() {
			// A fresh Process per row: each row owns its handle table,
			// so rows are independent and cluster cells rebuilding a
			// single row get bit-identical schedules.
			for _, mode := range systems.LoggingModes() {
				proc, err := mix.Spec.WithMTBCE(mtbce).Process()
				if err != nil {
					return nil, err
				}
				sc := Scenario{
					MTBCE:    mtbce,
					Arrivals: proc,
					PerEvent: noise.Fixed(mode.PerEventNanos),
					Target:   noise.AllNodes,
					Seed:     opts.Seed + 1,
				}
				row := Row{Workload: wl, System: mix.Name, Mode: mode.Name, PerEventNanos: mode.PerEventNanos}
				tasks = append(tasks, rowTask{e: e, sc: sc, row: row})
			}
		}
	}
	return f, runRows(f, opts, tasks)
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

// fig9PerEvents derives the per-CE handling cost for every (burst
// intensity, logging path) cell by running the node-level mca model
// under the mixture's burst train — the software path with the CMCI
// storm mitigation armed, the firmware path paying its SMI per event.
// The costs depend only on (seed, burst length, path), so every cell of
// a figure — one per workload when a cluster shards it — reads them
// from fig9Memo instead of re-running the eight storms.
func fig9PerEvents(seed uint64) ([]fig9PerEvent, error) {
	return stormCosts(fig9Memo, seed, stormPerEvents)
}

// stormCosts returns what compute yields for seed, from m when it is
// resident there; concurrent callers for one seed share one computation.
func stormCosts(m *memo.Cache[uint64, []fig9PerEvent], seed uint64, compute func(uint64) ([]fig9PerEvent, error)) ([]fig9PerEvent, error) {
	out, _, err := m.GetOrBuild(context.Background(), seed, func() ([]fig9PerEvent, error) { return compute(seed) })
	return out, err
}

// stormPerEvents runs the eight independent storms of one seed.
func stormPerEvents(seed uint64) ([]fig9PerEvent, error) {
	var out []fig9PerEvent
	for _, bl := range fig9BurstLens {
		out = append(out,
			fig9PerEvent{burstLen: bl, label: systems.SoftwareCMCI.Name, mode: mca.Software},
			fig9PerEvent{burstLen: bl, label: systems.FirmwareEMCA.Name, mode: mca.Firmware})
	}
	err := fanOut(context.Background(), len(out), runtime.GOMAXPROCS(0), func(i int) error {
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

// Figure9 sweeps storm-tail sensitivity: burst intensity of a row-fault
// train against Software (CMCI, storm mitigation armed) vs Firmware
// (EMCA, SMI per event) logging. As trains lengthen, the software path's
// effective per-CE cost collapses into polls while the firmware path
// keeps paying per event — the storm mitigation's value is the gap
// between the two curves.
func Figure9(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	f := &Figure{ID: "fig9", Title: "storm-tail sensitivity: burst intensity vs logging path"}
	const paperNodes = 16384
	perEvents, err := fig9PerEvents(opts.Seed)
	if err != nil {
		return nil, err
	}
	cache := newExpCache(opts)
	var tasks []rowTask
	for _, wl := range opts.Workloads {
		nodes, comp := opts.nodesFor(paperNodes)
		e, err := cache.get(wl, nodes)
		if err != nil {
			return nil, err
		}
		mtbce := compensateMTBCE(faultMixMTBCE, comp)
		for _, pe := range perEvents {
			spec := fig9Spec(pe.burstLen)
			spec.MTBCENanos = mtbce
			proc, err := spec.Process()
			if err != nil {
				return nil, err
			}
			sc := Scenario{
				MTBCE:    mtbce,
				Arrivals: proc,
				PerEvent: noise.Fixed(pe.nanos),
				Target:   noise.AllNodes,
				Seed:     opts.Seed + 1,
			}
			row := Row{
				Workload:      wl,
				System:        fmt.Sprintf("burst=%g", pe.burstLen),
				Mode:          pe.label,
				PerEventNanos: pe.nanos,
			}
			tasks = append(tasks, rowTask{e: e, sc: sc, row: row})
		}
	}
	return f, runRows(f, opts, tasks)
}
