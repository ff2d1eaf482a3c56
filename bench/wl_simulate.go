package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/server"
	"repro/internal/simcache"
	"repro/internal/systems"
	"repro/internal/tracegen"
)

// simulate_cold, simulate_warm and jobs_small: one op is POST
// /v1/simulate and poll to terminal, two closed-loop clients against
// the in-process daemon. The three differ in what the requests ask for.
//
// Cold sends never-repeated configurations, so every request misses the
// baseline cache: tracegen, collectives.Expand, the baseline simulation,
// NewSimulator and the cache's fill/evict path are the work, and the
// run loop is one repetition. Warm sends many scenarios over baselines
// prefilled during set-up, so every request hits the cache and the
// repetition loop (noise, loggopsim, eventq, simulator reuse) is the
// work: each is the other's bypass partner on simcache.
//
// Small sends a simulation so small — a cached minife baseline on 8
// nodes, 2 iterations, one repetition, a fresh mtbce_ns each — that the
// service tier is the work: request decoding and resolve, middleware,
// tenant admission, the job queue's submit -> start -> finish, three
// journal appends per job with the batched fsync, and HTTP. It is the
// append-side partner of restart_recovery.

type simulateKind int

const (
	simCold simulateKind = iota
	simWarm
	simSmall
)

var (
	coldNodes = []int{128, 256, 512}
	// Four iteration counts per (workload, nodes) point, offset by the
	// workload's index so the 108 configurations cover 36 distinct
	// lengths: evenly spread costs keep the median off a step between
	// two cost clusters.
	coldIters = []int{12, 20, 28, 36}

	warmNodes = []int{32, 64, 128}
	warmMTBCE = []int64{5e7, 2e8, 1e9, 1e10}
)

const (
	coldMTBCE = 2e8
	coldMode  = "software-cmci"
	warmIters = 16
	warmReps  = 8
	// warmPasses is how many times over the timed list runs the
	// scenario matrix.
	warmPasses  = 2
	smallJobs   = 40000
	smallSmoke  = 400
	simulateOps = 6 // cold and warm ops under -smoke
	// simulateCheck is the share of ops whose slowdown block is compared
	// with the direct core computation, and that the traced run replays.
	simulateCheck = 0.10
	// maxReplays bounds the staged replays of one traced run; a few
	// dozen attribute the engine's share.
	maxReplays = 64
	// coldWarmSeedShift keeps the warm-up's configurations out of the
	// timed list: the trace seed is part of the cache key.
	coldWarmSeedShift = 1 << 32
)

// smallRequest is jobs_small's i-th request; restart_recovery journals
// the same shape.
func smallRequest(seed uint64, i int) server.SimulateRequest {
	return server.SimulateRequest{
		Workload: smallConfig.Workload, Nodes: smallConfig.Nodes, Iters: smallConfig.Iterations,
		MTBCENanos: 2e8 + int64(i), Mode: coldMode, Seed: seed, Reps: 1,
	}
}

type simulate struct {
	kind    simulateKind
	e       *env
	d       *daemon
	reqs    []server.SimulateRequest
	warm    []server.SimulateRequest
	prefill []server.SimulateRequest // one per baseline the timed pass must find resident
	base    statsBase
	hs      httpStats

	mu      sync.Mutex
	checked map[int]bool
	results map[int]server.SimulateResult
	// Per client lane, so the hot path takes no lock.
	took, scenarios [2][]time.Duration
}

// plan builds the timed, warm-up and prefill request lists.
func (w *simulate) plan(e *env) {
	var all []server.SimulateRequest
	switch w.kind {
	case simCold:
		for wi, wl := range tracegen.Names() {
			for _, n := range coldNodes {
				for _, it := range coldIters {
					all = append(all, server.SimulateRequest{
						Workload: wl, Nodes: n, Iters: it + wi, MTBCENanos: coldMTBCE, Mode: coldMode,
						Seed: e.seed, Reps: 1,
					})
				}
			}
		}
		n := e.count(len(all), simulateOps)
		if n > len(all) {
			n = len(all) // a repeated configuration would hit the cache
		}
		for _, i := range permute(e.seed, len(all))[:n] {
			w.reqs = append(w.reqs, all[i])
		}
		// The warm-up runs the same shapes under another trace seed, so
		// it fills nothing the timed pass asks for.
		for _, r := range w.reqs[:(n+9)/10] {
			r.Seed += coldWarmSeedShift
			w.warm = append(w.warm, r)
		}
	case simWarm:
		for _, wl := range tracegen.Names() {
			for _, n := range warmNodes {
				w.prefill = append(w.prefill, server.SimulateRequest{
					Workload: wl, Nodes: n, Iters: warmIters, MTBCENanos: 1e10,
					Mode: systems.HardwareOnly.Name, Seed: e.seed, Reps: 1,
				})
				for _, mtbce := range warmMTBCE {
					for _, mode := range systems.LoggingModes() {
						all = append(all, server.SimulateRequest{
							Workload: wl, Nodes: n, Iters: warmIters, MTBCENanos: mtbce, Mode: mode.Name,
							Seed: e.seed, Reps: warmReps,
						})
					}
				}
			}
		}
		// The list keeps its natural order — each baseline's scenarios
		// together, a scenario sweep over one configuration, which is how
		// the warm path gets used — so the seed changes what the requests
		// compute, not which requests share the two cores.
		n := e.count(warmPasses*len(all), simulateOps)
		for i := 0; i < n; i++ {
			w.reqs = append(w.reqs, all[i%len(all)])
		}
		w.warm = w.reqs[:(n+9)/10]
	case simSmall:
		n := e.count(smallJobs, smallSmoke)
		for i := 0; i < n+(n+9)/10; i++ {
			w.reqs = append(w.reqs, smallRequest(e.seed, i))
		}
		// Fresh mtbce_ns values past the timed list's for the warm-up.
		w.reqs, w.warm = w.reqs[:n], w.reqs[n:]
		w.prefill = []server.SimulateRequest{smallRequest(e.seed, -1)}
	}
}

func (w *simulate) setup(ctx context.Context, e *env) error {
	w.e = e
	w.plan(e)
	w.checked = map[int]bool{}
	for _, i := range sampleOps(e.seed, len(w.reqs), simulateCheck) {
		w.checked[i] = true
	}
	w.results = map[int]server.SimulateResult{}

	var err error
	if w.d, err = bootDaemon(ctx, filepath.Join(e.dir, "data")); err != nil {
		return err
	}
	// Prefill through the front door.
	for _, req := range w.prefill {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		if _, err := w.d.runSimulate(ctx, nil, &w.hs, -1, 0, body); err != nil {
			return fmt.Errorf("prefill %s/%d: %w", req.Workload, req.Nodes, err)
		}
	}
	return nil
}

func (w *simulate) teardown() {
	if w.d != nil {
		w.d.close()
	}
}

func (w *simulate) begin()            { w.base = w.d.snapshot() }
func (w *simulate) clients() int      { return 2 }
func (w *simulate) sizes() (int, int) { return len(w.warm), len(w.reqs) }

func (w *simulate) deadline() time.Duration { return 10 * time.Second }

func (w *simulate) do(ctx context.Context, lane, i int, warm bool) (time.Duration, error) {
	req := w.reqs[i]
	tr := w.e.tr
	if warm {
		req, tr = w.warm[i], nil
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	op, err := w.d.runSimulate(ctx, tr, &w.hs, i, lane, body)
	if err != nil {
		return 0, err
	}
	if warm {
		return op.took, nil
	}
	if wantHit := w.kind != simCold; op.result.CacheHit != wantHit || op.result.CacheBypassed {
		return 0, fmt.Errorf("%w: cache_hit=%v cache_bypassed=%v, want a cache hit: %v", errMismatch,
			op.result.CacheHit, op.result.CacheBypassed, wantHit)
	}
	w.took[lane] = append(w.took[lane], op.took)
	w.scenarios[lane] = append(w.scenarios[lane], time.Duration(op.result.ScenariosNanos))
	if w.checked[i] {
		w.mu.Lock()
		w.results[i] = op.result
		w.mu.Unlock()
	}
	return op.took, nil
}

// resolved is what server.resolve makes of a bench request.
func resolved(req server.SimulateRequest) (core.ExperimentConfig, core.Scenario, error) {
	mode, err := systems.LoggingModeByName(req.Mode)
	if err != nil {
		return core.ExperimentConfig{}, core.Scenario{}, err
	}
	cfg := core.ExperimentConfig{Workload: req.Workload, Nodes: req.Nodes, Iterations: req.Iters, TraceSeed: req.Seed}
	sc := core.Scenario{
		MTBCE: req.MTBCENanos, PerEvent: noise.Fixed(mode.PerEventNanos),
		Target: noise.AllNodes, Seed: req.Seed + 1,
	}
	return cfg, sc, nil
}

// directChecker compares job results with the direct core computation
// of the same request, building each distinct experiment once.
type directChecker struct {
	exps map[string]*core.Experiment
}

func newDirectChecker() *directChecker { return &directChecker{exps: map[string]*core.Experiment{}} }

func (c *directChecker) compare(req server.SimulateRequest, got server.SimulateResult) error {
	cfg, sc, err := resolved(req)
	if err != nil {
		return err
	}
	key := simcache.Key(cfg)
	exp := c.exps[key]
	if exp == nil {
		if exp, err = core.NewExperiment(cfg); err != nil {
			return err
		}
		c.exps[key] = exp
	}
	rep, err := exp.RunRepeated(sc, req.Reps)
	if err != nil {
		return err
	}
	want, err := slowdownBlock(&rep.Sample)
	if err != nil {
		return err
	}
	if got.BaselineMakespanNanos != exp.Baseline().Makespan || !sameBlock(got.Slowdown, want) ||
		got.SaturatedReps != rep.SaturatedReps {
		return errMismatch
	}
	return nil
}

func (w *simulate) verify(context.Context) (int, []int, error) {
	var bad []int
	check := newDirectChecker()
	for i, got := range w.results {
		if err := check.compare(w.reqs[i], got); err != nil {
			bad = append(bad, i)
		}
	}
	n := len(w.results)
	ratio := w.d.hitRatio(w.base)
	switch {
	case w.kind == simCold && ratio != 0:
		return n, bad, fmt.Errorf("simcache hit ratio %.4f on the cold workload, want 0", ratio)
	case w.kind != simCold && ratio < 0.99:
		return n, bad, fmt.Errorf("simcache hit ratio %.4f, want >= 0.99: every request should find its baseline", ratio)
	}
	if w.kind == simSmall && !w.e.smoke {
		// The service tier, not the engine, must be the work. A timing
		// guard: it means nothing at -smoke size, where the tests also
		// run it under the race detector's distortion.
		op := median(append(append([]time.Duration(nil), w.took[0]...), w.took[1]...))
		sc := median(append(append([]time.Duration(nil), w.scenarios[0]...), w.scenarios[1]...))
		if op > 0 && float64(sc) >= 0.2*float64(op) {
			return n, bad, fmt.Errorf("scenarios wall p50 %s is not under 20%% of op p50 %s: the engine, not the service tier, is the work", sc, op)
		}
	}
	return n, bad, nil
}

func (w *simulate) layers(ctx context.Context, p *pass, m metrics) error {
	w.hs.fill(m)
	w.d.fillDeltas(m, w.base)
	m["process.loadgen_cpu_share"] = loadgenShare(ctx, w.hs.ops+w.hs.polls, p.cpu)
	if err := serviceProbes(ctx, w.e.dir, m); err != nil {
		return err
	}
	r := &replayer{tr: w.e.tr}
	if err := w.replay(r); err != nil {
		return err
	}
	return r.fill(m)
}

// replay re-runs the sampled ops (at most maxReplays) stage by stage
// and requires each replay to reproduce its op's result.
func (w *simulate) replay(r *replayer) error {
	ops := sortedKeys(w.results)
	if len(ops) > maxReplays {
		ops = ops[:maxReplays]
	}
	for _, i := range ops {
		req, got := w.reqs[i], w.results[i]
		cfg, sc, err := resolved(req)
		if err != nil {
			return err
		}
		root := r.tr.begin("replay", i, 0, -1)
		se, err := r.build(i, root, cfg)
		if err != nil {
			return err
		}
		sample, sat, err := r.repeated(i, root, se, sc, req.Reps)
		if err != nil {
			return err
		}
		r.tr.end(root)
		want, err := slowdownBlock(&sample)
		if err != nil {
			return err
		}
		if got.BaselineMakespanNanos != se.baseline.Makespan || !sameBlock(got.Slowdown, want) || got.SaturatedReps != sat {
			return fmt.Errorf("%w: staged replay of op %d (%s/%d) does not reproduce the job's result", errMismatch, i, cfg.Workload, cfg.Nodes)
		}
	}
	return nil
}

// sortedKeys returns a map's integer keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
