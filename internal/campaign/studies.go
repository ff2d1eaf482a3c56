package campaign

import (
	"context"
	"fmt"

	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/extrapolate"
	"repro/internal/loggopsim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

const (
	nsMs = int64(1000 * 1000)
	nsS  = 1000 * nsMs
	// firmware is the paper's flat firmware-first (EMCA) cost per CE.
	firmware = noise.Fixed(133 * nsMs)
)

// studies are the scale-sensitivity and ablation studies DESIGN.md §6
// cites, in the order a campaign writes them. Each is a fixed point: it
// reads only Options.Seed (its trace seed; its CE seeds sit at fixed
// offsets from it) and ignores Nodes, Reps, Scale and the rest.
var studies = []struct {
	name string
	run  func(ctx context.Context, o core.Options) (*report.Table, error)
}{
	{"scale-sensitivity", scaleSensitivity},
	{"ablation-collective-algo", ablationCollectiveAlgo},
	{"ablation-rendezvous", ablationRendezvous},
	{"ablation-noise-seeds", ablationNoiseSeeds},
	{"ablation-firmware-model", ablationFirmwareModel},
	{"ablation-extrapolation", ablationExtrapolation},
	{"ablation-correlated-smm", ablationCorrelatedSMM},
}

// repeated takes cfg's experiment from the process-wide memo, shared
// with the figures and the other studies, and runs reps repetitions
// (seeds seed, seed+1, …) of CEs on every node at mean gap mtbce, each
// costing d.
func repeated(ctx context.Context, cfg core.ExperimentConfig, mtbce int64, d noise.Duration, seed uint64, reps int) (
	*core.Experiment, *core.Repeated, error) {
	exp, err := core.SharedExperiment(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	sc := core.Scenario{MTBCE: mtbce, PerEvent: d, Target: noise.AllNodes, Seed: seed}
	rep, err := exp.RunRepeatedContext(ctx, sc, reps)
	return exp, rep, err
}

// scaleSensitivity checks scale compensation: exascale-cielo-x100's
// aggregate CE load should cost about the same at every node count.
func scaleSensitivity(ctx context.Context, o core.Options) (*report.Table, error) {
	t := report.New("scale sensitivity: lulesh, firmware @ exascale-x100 aggregate rate",
		"nodes", "mtbce", "slowdown")
	for _, nodes := range []int{64, 128, 256} {
		mtbce := (554*nsS + 400*nsMs) * int64(nodes) / 16384
		exp, rep, err := repeated(ctx, core.ExperimentConfig{Workload: "lulesh", Nodes: nodes, Iterations: 40, TraceSeed: o.Seed},
			mtbce, firmware, o.Seed+1, 3)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", exp.Ranks()), report.Nanos(mtbce), report.Pct(rep.Sample.Mean()))
	}
	return t, nil
}

// ablationCollectiveAlgo compares allreduce algorithms under the same CE noise.
func ablationCollectiveAlgo(ctx context.Context, o core.Options) (*report.Table, error) {
	t := report.New("ablation: allreduce algorithm (lulesh, firmware @ MTBCE 5s, 64 nodes)",
		"algorithm", "baseline", "slowdown")
	for _, algo := range []collectives.AllreduceAlgo{
		collectives.AllreduceRecursiveDoubling, collectives.AllreduceRabenseifner, collectives.AllreduceRing,
	} {
		exp, rep, err := repeated(ctx, core.ExperimentConfig{Workload: "lulesh", Nodes: 64, Iterations: 30, TraceSeed: o.Seed,
			Collectives: collectives.Config{Allreduce: algo}}, 5*nsS, firmware, o.Seed+2, 3)
		if err != nil {
			return nil, err
		}
		t.AddRow(algo.String(), report.Nanos(exp.Baseline().Makespan), report.Pct(rep.Sample.Mean()))
	}
	return t, nil
}

// ablationRendezvous sweeps the eager/rendezvous threshold S.
func ablationRendezvous(ctx context.Context, o core.Options) (*report.Table, error) {
	t := report.New("ablation: eager threshold S (cth halo = 96 KiB messages, 64 nodes)",
		"S", "baseline", "slowdown")
	for _, s := range []int64{1 << 10, 8 << 10, 128 << 10, 1 << 20} {
		net := netmodel.CrayXC40()
		net.S = s
		exp, rep, err := repeated(ctx, core.ExperimentConfig{Workload: "cth", Nodes: 64, Iterations: 12, TraceSeed: o.Seed, Net: net},
			3*nsS, firmware, o.Seed+4, 3)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dKiB", s>>10), report.Nanos(exp.Baseline().Makespan), report.Pct(rep.Sample.Mean()))
	}
	return t, nil
}

// ablationNoiseSeeds measures the spread of the slowdown over 16 CE schedules.
func ablationNoiseSeeds(ctx context.Context, o core.Options) (*report.Table, error) {
	_, rep, err := repeated(ctx, core.ExperimentConfig{Workload: "hpcg", Nodes: 64, Iterations: 20, TraceSeed: o.Seed},
		2*nsS, firmware, o.Seed+10, 16)
	if err != nil {
		return nil, err
	}
	s := rep.Sample.Summarize()
	t := report.New("ablation: CE schedule variance (hpcg, firmware @ MTBCE 2s, 16 seeds)", "stat", "value")
	t.AddRow("mean", report.Pct(s.Mean))
	t.AddRow("stddev", report.Pct(s.StdDev))
	t.AddRow("ci95", report.Pct(s.CI95))
	t.AddRow("min", report.Pct(s.Min))
	t.AddRow("max", report.Pct(s.Max))
	return t, nil
}

// ablationFirmwareModel compares the flat 133 ms per CE with Blake's measured
// mixture (7 ms SMI, plus 500 ms every 10th CE: mean 57 ms) and a flat 57 ms.
func ablationFirmwareModel(ctx context.Context, o core.Options) (*report.Table, error) {
	t := report.New("ablation: firmware per-event cost model (milc @ MTBCE 2s, 64 nodes)", "model", "slowdown")
	for _, m := range []struct {
		name string
		dur  noise.Duration
	}{
		{"flat-133ms", firmware},
		{"mixture-7ms+500ms/10", noise.EveryNth{Base: 7 * nsMs, Extra: 500 * nsMs, N: 10}},
		{"flat-57ms-mean-matched", noise.Fixed(57 * nsMs)},
	} {
		_, rep, err := repeated(ctx, core.ExperimentConfig{Workload: "milc", Nodes: 64, Iterations: 15, TraceSeed: o.Seed},
			2*nsS, m.dur, o.Seed+12, 4)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.name, report.Pct(rep.Sample.Mean()))
	}
	return t, nil
}

// ablationExtrapolation checks the paper's trace extrapolation (§III-C): 8
// ranks extrapolated to 64 against 64 generated directly. Collectives are
// exact; point-to-point topology is approximated, so baselines differ.
func ablationExtrapolation(ctx context.Context, o core.Options) (*report.Table, error) {
	t := report.New("ablation: extrapolated vs directly generated traces (minife, firmware @ MTBCE 2s)",
		"variant", "ranks", "baseline", "slowdown")
	small, err := tracegen.Generate("minife", 8, 15, o.Seed)
	if err != nil {
		return nil, err
	}
	extr, err := extrapolate.Extrapolate(small, 8)
	if err != nil {
		return nil, err
	}
	direct, err := tracegen.Generate("minife", 64, 15, o.Seed)
	if err != nil {
		return nil, err
	}
	ce := noise.Config{MTBCE: 2 * nsS, Duration: firmware, Target: noise.AllNodes}
	for _, v := range []struct {
		name string
		tr   *trace.Trace
	}{{"extrapolated", extr}, {"direct", direct}} {
		ranks := v.tr.NumRanks()
		baseline, mean, err := meanSlowdown(ctx, v.tr, loggopsim.Config{Net: netmodel.CrayXC40()}, ce, o.Seed, 3,
			func(c noise.Config) (noise.Model, error) { return noise.NewCE(ranks, c) })
		if err != nil {
			return nil, err
		}
		t.AddRow(v.name, fmt.Sprintf("%d", ranks), report.Nanos(baseline), report.Pct(mean))
	}
	return t, nil
}

// ablationCorrelatedSMM compares an SMI halting all 4 ranks of a node at
// once (noise.CE with RanksPerNode 4) with independent per-rank detours
// at the same rate.
func ablationCorrelatedSMM(ctx context.Context, o core.Options) (*report.Table, error) {
	const ranks, perNode = 64, 4
	tr, err := tracegen.Generate("minife", ranks, 15, o.Seed)
	if err != nil {
		return nil, err
	}
	cfg := loggopsim.Config{Net: netmodel.CrayXC40(), RanksPerNode: perNode}
	ce := noise.Config{MTBCE: 2 * nsS, Duration: noise.Fixed(50 * nsMs), Target: noise.AllNodes}
	_, corr, err := meanSlowdown(ctx, tr, cfg, ce, o.Seed, 4,
		func(c noise.Config) (noise.Model, error) { c.RanksPerNode = perNode; return noise.NewCE(ranks, c) })
	if err != nil {
		return nil, err
	}
	_, indep, err := meanSlowdown(ctx, tr, cfg, ce, o.Seed, 4,
		func(c noise.Config) (noise.Model, error) { return noise.NewCE(ranks, c) })
	if err != nil {
		return nil, err
	}
	t := report.New("ablation: correlated (SMM) vs independent CE detours (minife, 16 nodes x 4 ranks)",
		"model", "slowdown")
	t.AddRow("correlated-smm", report.Pct(corr))
	t.AddRow("independent", report.Pct(indep))
	return t, nil
}

// meanSlowdown expands and compiles tr once and runs it under cfg
// noise-free, then under newNoise(ce) with ce.Seed = seed0 … seed0+n-1,
// checking ctx between seeds. It returns the noise-free makespan and the
// mean slowdown.
func meanSlowdown(ctx context.Context, tr *trace.Trace, cfg loggopsim.Config, ce noise.Config, seed0 uint64, n int,
	newNoise func(noise.Config) (noise.Model, error)) (int64, float64, error) {
	ex, err := collectives.Expand(tr, collectives.Config{})
	if err != nil {
		return 0, 0, err
	}
	sim, err := loggopsim.NewSimulator(ex, cfg)
	if err != nil {
		return 0, 0, err
	}
	base, err := sim.Run(nil)
	if err != nil {
		return 0, 0, err
	}
	var sample stats.Sample
	for seed := seed0; seed < seed0+uint64(n); seed++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		ce.Seed = seed
		nm, err := newNoise(ce)
		if err != nil {
			return 0, 0, err
		}
		res, err := sim.Run(nm)
		if err != nil {
			return 0, 0, err
		}
		sample.Add(stats.Slowdown(res.Makespan, base.Makespan))
	}
	return base.Makespan, sample.Mean(), nil
}
