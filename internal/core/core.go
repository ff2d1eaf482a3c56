// Package core is the public face of the library: it wires workload
// generation, collective expansion, LogGOPS simulation and
// correctable-error injection into the paper's experiment pipeline, and
// provides one driver per evaluation table/figure (see figures.go).
//
// The basic unit is the Experiment: a workload trace at a given scale,
// expanded and simulated once without noise (the baseline), against
// which any number of CE-injection scenarios are evaluated. Slowdown is
// the paper's metric: (perturbed - baseline) / baseline * 100.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"

	"repro/internal/collectives"
	"repro/internal/faultinject"
	"repro/internal/loggopsim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// ExperimentConfig describes a workload at a scale.
type ExperimentConfig struct {
	// Workload is a tracegen workload name.
	Workload string
	// Nodes is the target node count (one rank per node, as in the
	// paper). Workload decomposition constraints may reduce it; see
	// tracegen.PreferredRanks.
	Nodes int
	// Iterations is the number of main-loop iterations to generate.
	Iterations int
	// TraceSeed drives workload generation (compute jitter).
	TraceSeed uint64
	// Net is the LogGOPS parameter set; zero value means Cray XC40.
	Net netmodel.Params
	// Collectives selects expansion algorithms.
	Collectives collectives.Config
}

// Canonical returns the configuration with defaults resolved the same
// way NewExperiment resolves them (a zero Net means Cray XC40), so two
// configs that behave identically compare and hash identically.
func (c ExperimentConfig) Canonical() ExperimentConfig {
	if c.Net == (netmodel.Params{}) {
		c.Net = netmodel.CrayXC40()
	}
	return c
}

// Experiment is a prepared workload with its noise-free baseline: the
// expanded trace compiled once into a loggopsim.Program that every
// repetition — sequential loops, fan-out workers, successive daemon
// jobs hitting the same cached Experiment — runs concurrently.
type Experiment struct {
	cfg      ExperimentConfig
	prog     *loggopsim.Program
	baseline *loggopsim.Result
	ranks    int

	// idle holds run states of prog between repetitions, so a
	// repetition pays for its event queue and per-rank state only the
	// first time a goroutine needs one more than are idle. The list is
	// per Program on purpose: a run state's event queue keeps the ring
	// geometry it learned, which fits this program's events only.
	mu   sync.Mutex
	idle []*loggopsim.Simulator
}

// NewExperiment lowers the workload into a compiled program one rank
// at a time — generate rank r's ops into a scratch buffer a rank long,
// and let the expander report them to the builder, each collective
// instance as a reference to a schedule the builder compiles once per
// rank — so neither the generated nor the expanded trace ever exists
// whole and only the program is kept. It then simulates the noise-free
// baseline, whose run state is the first one on the idle list.
func NewExperiment(cfg ExperimentConfig) (*Experiment, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("core: need at least 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Iterations < 1 {
		return nil, fmt.Errorf("core: need at least 1 iteration, got %d", cfg.Iterations)
	}
	cfg = cfg.Canonical()
	ranks := tracegen.PreferredRanks(cfg.Workload, cfg.Nodes)
	spec, err := tracegen.Lookup(cfg.Workload)
	if err != nil {
		return nil, err
	}
	plan, err := tracegen.NewPlan(spec, ranks, cfg.Iterations, cfg.TraceSeed)
	if err != nil {
		return nil, err
	}
	expander, err := collectives.NewExpander(ranks, cfg.Collectives)
	if err != nil {
		return nil, err
	}
	builder, err := loggopsim.NewBuilder(ranks, loggopsim.Config{Net: cfg.Net, Profile: true})
	if err != nil {
		return nil, fmt.Errorf("core: baseline simulation: %w", err)
	}
	var generated []trace.Op
	for r := 0; r < ranks; r++ {
		generated = plan.AppendRank(generated[:0], r)
		if err := builder.StartRank(r); err != nil {
			return nil, fmt.Errorf("core: baseline simulation: %w", err)
		}
		if err := expander.ExpandRank(builder, r, generated); err != nil {
			return nil, err
		}
	}
	prog, err := builder.Program()
	if err != nil {
		return nil, fmt.Errorf("core: baseline simulation: %w", err)
	}
	sim := prog.NewSimulator()
	base, err := sim.Run(nil)
	if err != nil {
		return nil, fmt.Errorf("core: baseline simulation: %w", err)
	}
	return &Experiment{cfg: cfg, prog: prog, baseline: base, ranks: ranks, idle: []*loggopsim.Simulator{sim}}, nil
}

// Ranks returns the actual rank count after decomposition adjustment.
func (e *Experiment) Ranks() int { return e.ranks }

// Baseline returns the noise-free simulation result.
func (e *Experiment) Baseline() *loggopsim.Result { return e.baseline }

// Config returns the experiment configuration.
func (e *Experiment) Config() ExperimentConfig { return e.cfg }

// SizeBytes is what the experiment keeps resident when it is asked: the
// compiled program, the baseline's per-rank results (finish time and
// the three profile components) and the run states on the idle list —
// for an experiment nothing is running on yet, as when an
// ExperimentCache prices it, the baseline's. Run states taken later by
// concurrent repetitions are bounded (see releaseSim) and not part of
// that price.
func (e *Experiment) SizeBytes() int64 {
	size := e.prog.SizeBytes() + int64(e.ranks)*4*8
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, sim := range e.idle {
		size += sim.SizeBytes()
	}
	return size
}

// Scenario describes one CE-injection configuration.
type Scenario struct {
	// MTBCE is the per-node mean time between CEs, in nanoseconds.
	// Ignored when Arrivals is set.
	MTBCE int64
	// Arrivals overrides the Poisson arrival process (e.g. a faultmodel
	// mixture; one bursty mode is the paper's conclusion (iii)).
	Arrivals noise.Arrivals
	// PerEvent is the per-CE handling time model.
	PerEvent noise.Duration
	// Target is the node experiencing CEs, or noise.AllNodes.
	Target int32
	// Seed drives the CE arrival randomness.
	Seed uint64
}

// RunResult is the outcome of one perturbed simulation.
type RunResult struct {
	// SlowdownPct is (perturbed-baseline)/baseline*100.
	SlowdownPct float64
	// Perturbed is the noisy simulation result, or a copy of the
	// baseline when no CE could reach the run.
	Perturbed *loggopsim.Result
	// CEEvents is the number of detours charged.
	CEEvents uint64
	// CEStolenNanos is the total CPU time consumed by CE handling.
	CEStolenNanos int64
	// Saturated reports that the CE load prevented forward progress
	// (analytically, when load >= 1, or detected during simulation).
	Saturated bool
	// Profile decomposes the perturbed run's time into requested work,
	// injected detours and blocked waiting (see loggopsim.Profile).
	Profile *loggopsim.Profile
}

// saturationLoad is the CE handling load (mean handling time / MTBCE)
// at and above which a node cannot make forward progress; such
// scenarios are reported as saturated without simulating.
const saturationLoad = 1.0

// acquireSim takes an idle run state of the experiment's program,
// allocating one when none is idle. A run state serves one goroutine
// at a time; hand it back with releaseSim unless a run panicked on it.
func (e *Experiment) acquireSim() *loggopsim.Simulator {
	e.mu.Lock()
	n := len(e.idle)
	if n == 0 {
		e.mu.Unlock()
		return e.prog.NewSimulator()
	}
	sim := e.idle[n-1]
	e.idle[n-1] = nil
	e.idle = e.idle[:n-1]
	e.mu.Unlock()
	return sim
}

// releaseSim returns a run state to the idle list. No more than
// GOMAXPROCS can be running at once to any purpose, so no more are
// kept idle; the rest are left to the collector.
func (e *Experiment) releaseSim(sim *loggopsim.Simulator) {
	limit := runtime.GOMAXPROCS(0)
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.idle) < limit {
		e.idle = append(e.idle, sim)
	}
}

// Run evaluates the experiment under one CE scenario. It decides before
// it simulates: a scenario at load >= 1 makes no progress, and one
// whose first CE on every rank arrives at or after the rank's
// noise-free finish time is the baseline (docs/MODEL.md §2). Only the
// rest take a run state off the idle list and simulate.
func (e *Experiment) Run(sc Scenario) (*RunResult, error) {
	ncfg := noise.Config{
		Seed:             sc.Seed,
		MTBCE:            sc.MTBCE,
		Arrivals:         sc.Arrivals,
		Duration:         sc.PerEvent,
		Target:           sc.Target,
		SaturationFactor: 1000,
	}
	if err := ncfg.Validate(); err != nil {
		return nil, err
	}
	if ncfg.LoadFactor() >= saturationLoad {
		// The renewal race diverges: the application makes no
		// meaningful progress (the paper's Fig. 7 omits such points).
		return &RunResult{Saturated: true, SlowdownPct: 0}, nil
	}
	nm, err := noise.NewCE(e.ranks, ncfg)
	if err != nil {
		return nil, err
	}
	if e.unreachable(nm) {
		return e.baselineResult(), nil
	}
	sim := e.acquireSim()
	res, err := sim.Run(nm)
	e.releaseSim(sim) // not deferred: a run state a panic interrupted is dropped
	if err != nil {
		return nil, fmt.Errorf("core: perturbed simulation: %w", err)
	}
	return &RunResult{
		SlowdownPct:   stats.Slowdown(res.Makespan, e.baseline.Makespan),
		Perturbed:     res,
		CEEvents:      nm.Events(),
		CEStolenNanos: nm.Stolen(),
		Saturated:     nm.Saturated(),
		Profile:       res.Profile,
	}, nil
}

// unreachable reports that no rank's first CE arrives before the rank's
// noise-free finish time. Such a run is the baseline: while it matches
// the baseline, every work window on rank r ends by FinishTimes[r], at
// or before the rank's next arrival, so the engine never consults nm.
// NextArrival starts each rank's stream exactly as Simulator.Run's
// reset does, so a run that follows a false answer draws the same
// numbers.
func (e *Experiment) unreachable(nm *noise.CE) bool {
	for r, finish := range e.baseline.FinishTimes {
		if nm.NextArrival(int32(r)) < finish {
			return false
		}
	}
	return true
}

// baselineResult is the outcome of an unreachable run: the baseline,
// copied so the caller owns it as it owns a simulated Result.
func (e *Experiment) baselineResult() *RunResult {
	res, prof := *e.baseline, *e.baseline.Profile
	res.FinishTimes = slices.Clone(res.FinishTimes)
	prof.PerRankWork = slices.Clone(prof.PerRankWork)
	prof.PerRankDetour = slices.Clone(prof.PerRankDetour)
	prof.PerRankWait = slices.Clone(prof.PerRankWait)
	res.Profile = &prof
	return &RunResult{SlowdownPct: stats.Slowdown(res.Makespan, res.Makespan), Perturbed: &res, Profile: &prof}
}

// RepetitionError is the typed failure of one simulation repetition:
// either a recovered panic (PanicValue and Stack set) or an injected
// fault (Err set). The seed identifies which repetition failed.
type RepetitionError struct {
	// Seed is the CE seed of the failed repetition.
	Seed uint64
	// PanicValue is non-nil when the repetition panicked.
	PanicValue any
	// Stack is the goroutine stack captured at panic recovery.
	Stack string
	// Err is the underlying error for non-panic failures.
	Err error
}

func (e *RepetitionError) Error() string {
	if e.PanicValue != nil {
		return fmt.Sprintf("core: repetition (seed %d) panicked: %v", e.Seed, e.PanicValue)
	}
	return fmt.Sprintf("core: repetition (seed %d): %v", e.Seed, e.Err)
}

func (e *RepetitionError) Unwrap() error { return e.Err }

// Retryable marks the repetition eligible for a bounded same-seed
// re-run — unless the underlying cause is cancellation, which must
// stop the run, not restart it.
func (e *RepetitionError) Retryable() bool {
	return !errors.Is(e.Err, context.Canceled) && !errors.Is(e.Err, context.DeadlineExceeded)
}

// retryableErr reports whether any error in the chain declares itself
// retryable via a Retryable() bool method.
func retryableErr(err error) bool {
	var r interface{ Retryable() bool }
	return errors.As(err, &r) && r.Retryable()
}

// repAttempts bounds how many times one repetition is attempted. A
// retried repetition re-runs with the same CE seed, so a successful
// retry is bit-identical to a never-faulted run; the sample cannot
// drift no matter how often faults fire.
const repAttempts = 4

// runRepOnce attempts one repetition, firing the core.repetition fault
// site and converting a panic into a *RepetitionError with the stack
// captured. A run state a panic interrupted is dropped by Run: its
// event queue and per-rank state may be mid-run.
func (e *Experiment) runRepOnce(ctx context.Context, sc Scenario) (res *RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &RepetitionError{Seed: sc.Seed, PanicValue: r, Stack: string(debug.Stack())}
		}
	}()
	if ferr := faultinject.Fire(ctx, faultinject.SiteRepetition); ferr != nil {
		return nil, &RepetitionError{Seed: sc.Seed, Err: ferr}
	}
	return e.Run(sc)
}

// runRep executes one repetition with panic recovery and bounded
// same-seed retry. retried reports the extra attempts spent.
func (e *Experiment) runRep(ctx context.Context, sc Scenario) (res *RunResult, retried int, err error) {
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, retried, cerr
		}
		res, err = e.runRepOnce(ctx, sc)
		if err == nil {
			return res, retried, nil
		}
		if !retryableErr(err) || attempt+1 >= repAttempts {
			return nil, retried, err
		}
		retried++
	}
}

// Repeated is the aggregate of several repetitions of one scenario
// with different CE seeds (the paper averages >= 8 runs per
// configuration). Saturated repetitions — whether detected
// analytically before simulating or by the saturation guard during a
// run — contribute no slowdown to Sample: their makespans measure the
// guard's cutoff, not application progress. SaturatedReps records how
// many repetitions were excluded that way, so Sample.N() +
// SaturatedReps == Reps always holds and a partial sample is
// distinguishable from a short run.
type Repeated struct {
	// Sample holds the slowdowns of the non-saturated repetitions.
	Sample stats.Sample
	// Saturated reports that at least one repetition saturated. When
	// every repetition did (Sample.N() == 0), the scenario made no
	// measurable progress at all.
	Saturated bool
	// SaturatedReps counts the repetitions excluded from Sample.
	SaturatedReps int
	// Reps is the number of repetitions executed.
	Reps int
	// RetriedReps counts extra attempts spent re-running repetitions
	// that panicked or failed retryably (fault injection, transient
	// errors). Retries re-use the repetition's seed, so they never
	// change Sample — Sample.N() + SaturatedReps == Reps regardless.
	RetriedReps int
}

// add folds one repetition into the aggregate.
func (r *Repeated) add(o repOutcome) {
	r.Reps++
	r.RetriedReps += o.retried
	if o.saturated {
		r.Saturated = true
		r.SaturatedReps++
		return
	}
	r.Sample.Add(o.slowdownPct)
}

// RunRepeated runs the scenario reps times with seeds sc.Seed,
// sc.Seed+1, ... on the calling goroutine and collects the slowdown
// sample. See Repeated for the saturation semantics.
func (e *Experiment) RunRepeated(sc Scenario, reps int) (*Repeated, error) {
	return e.RunRepeatedParallelContext(context.Background(), sc, reps, 1)
}
