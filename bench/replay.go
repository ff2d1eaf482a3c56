package main

import (
	"fmt"
	"time"

	"repro/internal/collectives"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/faultmodel"
	"repro/internal/loggopsim"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// Staged replay: re-run a sampled op's pipeline through the layers'
// public functions — tracegen.Generate, collectives.Expand,
// loggopsim.Simulate, NewSimulator, noise.NewCE, Simulator.Run — with a
// span around each, and require the replayed numbers to equal the op's
// own output bit for bit. Equality is what proves the spans timed the
// same work the op did. The stages mirror core.NewExperiment and the
// per-repetition body of core.Experiment.Run.

// extendCall is one recorded noise.Model.Extend call.
type extendCall struct {
	node       int32
	start, dur int64
}

// recordedRun is the Extend call sequence of one simulator run, with
// what is needed to build the same-seed model again.
type recordedRun struct {
	ranks int
	cfg   noise.Config
	calls []extendCall
	plain time.Duration // the same run's Simulator.Run time without the recorder
}

// recorder decorates a CE model, recording every Extend call. It keeps
// the ArrivalPeeker face so the simulator elides the same calls it
// would on the bare model.
type recorder struct {
	inner *noise.CE
	calls []extendCall
}

func (r *recorder) Extend(node int32, start, dur int64) int64 {
	r.calls = append(r.calls, extendCall{node, start, dur})
	return r.inner.Extend(node, start, dur)
}

func (r *recorder) NextArrival(node int32) int64 { return r.inner.NextArrival(node) }

// maxRecordedCalls bounds the memory one traced run spends on recorded
// Extend calls; runs past it are timed but not recorded.
const maxRecordedCalls = 4 << 20

// replayer accumulates the staged-replay spans and counts of a run.
type replayer struct {
	tr *tracer

	ops                                       int
	generate, expand, baseline, newSim, newCE time.Duration
	run                                       time.Duration
	runs                                      int
	opsGenerated, expandedOps                 int
	memoHits, memoLookups                     uint64
	simEvents, ceEvents                       uint64
	ranksSum                                  int
	recorded                                  []recordedRun
	recordedCalls                             int
}

// stagedExp is a replayed core.Experiment: the stages' products.
type stagedExp struct {
	cfg      core.ExperimentConfig
	ranks    int
	expanded *trace.Trace
	baseline *loggopsim.Result
	sim      *loggopsim.Simulator
}

// build replays core.NewExperiment stage by stage.
func (r *replayer) build(op, parent int, cfg core.ExperimentConfig) (*stagedExp, error) {
	cfg = cfg.Canonical()
	se := &stagedExp{cfg: cfg, ranks: tracegen.PreferredRanks(cfg.Workload, cfg.Nodes)}
	r.ops++
	r.ranksSum += se.ranks

	t := time.Now()
	gen, err := tracegen.Generate(cfg.Workload, se.ranks, cfg.Iterations, cfg.TraceSeed)
	d := time.Since(t)
	if err != nil {
		return nil, err
	}
	r.tr.add("tracegen.generate", op, 0, parent, t, d)
	r.generate += d
	r.opsGenerated += gen.NumOps()

	before := collectives.ScheduleCache()
	t = time.Now()
	se.expanded, err = collectives.Expand(gen, cfg.Collectives)
	d = time.Since(t)
	if err != nil {
		return nil, err
	}
	r.tr.add("collectives.expand", op, 0, parent, t, d)
	after := collectives.ScheduleCache()
	r.expand += d
	r.expandedOps += se.expanded.NumOps()
	hits := after.Hits + after.Coalesced - before.Hits - before.Coalesced
	r.memoHits += hits
	r.memoLookups += hits + after.Misses - before.Misses

	t = time.Now()
	se.baseline, err = loggopsim.Simulate(se.expanded, loggopsim.Config{Net: cfg.Net})
	d = time.Since(t)
	if err != nil {
		return nil, err
	}
	r.tr.add("loggopsim.baseline", op, 0, parent, t, d)
	r.baseline += d

	t = time.Now()
	se.sim, err = loggopsim.NewSimulator(se.expanded, loggopsim.Config{Net: cfg.Net, Profile: true})
	d = time.Since(t)
	if err != nil {
		return nil, err
	}
	r.tr.add("loggopsim.new_simulator", op, 0, parent, t, d)
	r.newSim += d
	return se, nil
}

// repeated replays Experiment.RunRepeated: reps runs with seeds
// sc.Seed, sc.Seed+1, ..., saturated runs left out of the sample.
func (r *replayer) repeated(op, parent int, se *stagedExp, sc core.Scenario, reps int) (stats.Sample, int, error) {
	var sample stats.Sample
	saturated := 0
	for i := 0; i < reps; i++ {
		ncfg := noise.Config{
			Seed: sc.Seed + uint64(i), MTBCE: sc.MTBCE, Arrivals: sc.Arrivals,
			Duration: sc.PerEvent, Target: sc.Target, SaturationFactor: 1000,
		}
		if err := ncfg.Validate(); err != nil {
			return sample, 0, err
		}
		if ncfg.LoadFactor() >= 1 {
			saturated++
			continue
		}
		t := time.Now()
		nm, err := noise.NewCE(se.ranks, ncfg)
		d := time.Since(t)
		if err != nil {
			return sample, 0, err
		}
		r.tr.add("noise.new_ce", op, 0, parent, t, d)
		r.newCE += d

		t = time.Now()
		res, err := se.sim.Run(nm)
		d = time.Since(t)
		if err != nil {
			return sample, 0, err
		}
		r.tr.add("loggopsim.run", op, 0, parent, t, d)
		r.run += d
		r.runs++
		r.simEvents += res.Events
		r.ceEvents += nm.Events()

		if i == 0 && r.recordedCalls < maxRecordedCalls {
			if err := r.record(se, ncfg, res.Makespan, d); err != nil {
				return sample, 0, err
			}
		}
		if nm.Saturated() {
			saturated++
			continue
		}
		sample.Add(stats.Slowdown(res.Makespan, se.baseline.Makespan))
	}
	return sample, saturated, nil
}

// record re-runs one repetition behind the recording decorator, for
// the noise leaf probe, and requires the same makespan.
func (r *replayer) record(se *stagedExp, ncfg noise.Config, makespan int64, plain time.Duration) error {
	inner, err := noise.NewCE(se.ranks, ncfg)
	if err != nil {
		return err
	}
	rec := &recorder{inner: inner}
	res, err := se.sim.Run(rec)
	if err != nil {
		return err
	}
	if res.Makespan != makespan {
		return fmt.Errorf("%w: recorded run makespan %d, plain run %d", errMismatch, res.Makespan, makespan)
	}
	r.recorded = append(r.recorded, recordedRun{ranks: se.ranks, cfg: ncfg, calls: rec.calls, plain: plain})
	r.recordedCalls += len(rec.calls)
	return nil
}

// slowdownBlock renders a sample the way server.simulateFunc does.
func slowdownBlock(s *stats.Sample) (*server.SlowdownJSON, error) {
	if s.N() == 0 {
		return nil, nil
	}
	sum := s.Summarize()
	p50, err := s.Quantile(50)
	if err != nil {
		return nil, err
	}
	p95, err := s.Quantile(95)
	if err != nil {
		return nil, err
	}
	return &server.SlowdownJSON{
		MeanPct: sum.Mean, CI95Pct: sum.CI95, MinPct: sum.Min, MaxPct: sum.Max,
		P50Pct: p50, P95Pct: p95, N: sum.N,
	}, nil
}

func sameBlock(a, b *server.SlowdownJSON) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// fill writes the replay-derived rows and runs the leaf probes below
// Simulator.Run at the counts the replays saw. Times are means per
// replayed op (per run for run_ms); counts are totals over the sample.
func (r *replayer) fill(m metrics) error {
	if r.ops == 0 {
		return nil
	}
	n := float64(r.ops)
	m["tracegen.generate_ms"] = ms(r.generate) / n
	m["tracegen.ops_generated"] = float64(r.opsGenerated)
	m["collectives.expand_ms"] = ms(r.expand) / n
	m["collectives.expanded_ops"] = float64(r.expandedOps)
	if r.memoLookups > 0 {
		m["collectives.memo_hit_ratio"] = float64(r.memoHits) / float64(r.memoLookups)
	}
	m["loggopsim.baseline_ms"] = ms(r.baseline) / n
	m["loggopsim.new_simulator_ms"] = ms(r.newSim) / n
	m["loggopsim.sim_events"] = float64(r.simEvents)
	m["noise.ce_events"] = float64(r.ceEvents)
	if r.runs == 0 {
		return nil
	}
	m["loggopsim.run_ms"] = ms(r.run) / float64(r.runs)
	m["noise.new_ce_us"] = us(r.newCE) / float64(r.runs)
	if r.simEvents > 0 {
		m["loggopsim.ns_per_event"] = float64(r.run) / float64(r.simEvents)
		m["loggopsim.sim_events_per_s"] = float64(r.simEvents) / r.run.Seconds()
	}

	// noise.Extend: replay the recorded calls in bulk on a fresh
	// same-seed model, so only Extend is inside the timer.
	var extend, plain time.Duration
	for _, rr := range r.recorded {
		nm, err := noise.NewCE(rr.ranks, rr.cfg)
		if err != nil {
			return err
		}
		t := time.Now()
		for _, c := range rr.calls {
			nm.Extend(c.node, c.start, c.dur)
		}
		extend += time.Since(t)
		plain += rr.plain
	}
	m["noise.extend_calls"] = float64(r.recordedCalls)
	if r.recordedCalls > 0 {
		m["noise.extend_ns_per_call"] = float64(extend) / float64(r.recordedCalls)
		m["noise.share_of_run_est"] = float64(extend) / float64(plain)
	}

	// eventq: the hold model — pop the earliest event, push one a random
	// increment later — at a queue length of the mean rank count, for
	// as many operations as the replays simulated events.
	ranks := r.ranksSum / r.ops
	holds := int(r.simEvents)
	if holds > 2<<20 {
		holds = 2 << 20
	}
	src := rng.New(1)
	q := eventq.New(ranks)
	for i := 0; i < ranks; i++ {
		q.Push(eventq.Event{Time: int64(src.Exp(1e5)), Rank: int32(i)})
	}
	t := time.Now()
	for i := 0; i < holds; i++ {
		e := q.Pop()
		e.Time += int64(src.Exp(1e5))
		q.Push(e)
	}
	hold := float64(time.Since(t)) / float64(holds)
	m["eventq.hold_ns_per_op"] = hold
	m["eventq.share_of_run_est"] = hold * float64(r.simEvents) / float64(r.run)

	// rng: bulk draws of the two primitives the arrival streams use.
	const draws = 4 << 20
	var sinkF float64
	var sinkU uint64
	t = time.Now()
	for i := 0; i < draws; i++ {
		sinkF += src.Exp(1e5)
	}
	m["rng.exp_ns_per_draw"] = float64(time.Since(t)) / draws
	t = time.Now()
	for i := 0; i < draws; i++ {
		sinkU += src.Uint64()
	}
	m["rng.uint64_ns_per_draw"] = float64(time.Since(t)) / draws
	probeSink = sinkF + float64(sinkU&1)
	return nil
}

// probeSink keeps the probe loops' results alive.
var probeSink float64

// fig9Spec is Fig. 9's storm-tail mixture at one burst intensity, as
// core's figure driver builds it: a row-fault train over a single-cell
// background. The staged replay of Fig. 9 cells proves it is the same
// spec, because their rows only match when the arrivals do.
func fig9Spec(burstLen float64, mtbce int64) faultmodel.Spec {
	row := faultmodel.Mode{Kind: "row", Weight: 0.7}
	if burstLen > 1 {
		row.BurstLen = burstLen
		row.BurstGapNanos = 1e6
	}
	return faultmodel.Spec{
		MTBCENanos: mtbce,
		Modes:      []faultmodel.Mode{{Kind: "cell", Weight: 0.3}, row},
	}
}

// faultmodelProbe times bulk gap draws on the Fig. 9 spec and the event
// generator's Next loop on the given spec.
func faultmodelProbe(m metrics, gen faultmodel.Spec) error {
	proc, err := fig9Spec(64, 3600e6).Process()
	if err != nil {
		return err
	}
	const draws = 1 << 20
	src := rng.NewStream(1, 0)
	var state uint64
	buf := make([]int64, 0, 1024)
	t := time.Now()
	for i := 0; i < draws/1024; i++ {
		buf = proc.AppendGaps(buf[:0], src, &state, 1024)
	}
	m["faultmodel.gap_ns_per_draw"] = float64(time.Since(t)) / draws

	g, err := gen.Generator(1, 0)
	if err != nil {
		return err
	}
	var sink int64
	t = time.Now()
	for i := 0; i < draws; i++ {
		sink += g.Next().TimeNanos
	}
	m["faultmodel.events_per_s"] = draws / time.Since(t).Seconds()
	probeSink += float64(sink & 1)
	return nil
}
