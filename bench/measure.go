package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// env is what the runner hands a workload.
type env struct {
	seed  uint64
	scale float64 // -seconds over nominalSeconds; op lists scale with it
	smoke bool    // cut every op list to about two seconds in total
	dir   string  // scratch directory, private to this run
	tr    *tracer // nil on the untraced run
}

// count scales a nominal op count by -seconds, or cuts it for -smoke.
func (e *env) count(nominal, smoke int) int {
	if e.smoke {
		return smoke
	}
	n := int(math.Round(float64(nominal) * e.scale))
	if n < 1 {
		n = 1
	}
	return n
}

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// workload is one benchmark scenario. The runner calls setup, then do
// for every warm-up op, then do for every timed op (from clients()
// goroutines, each taking the next unclaimed op: a closed loop), then
// verify, then — on the traced run — layers, then teardown.
type workload interface {
	// setup builds the inputs and everything the ops run against. Its
	// wall time is setup_s.
	setup(ctx context.Context, e *env) error
	teardown()
	clients() int
	// sizes returns the warm-up and timed op counts.
	sizes() (warm, timed int)
	// deadline is the per-op time limit (ten times the expected op
	// time); an op that exceeds it failed.
	deadline() time.Duration
	// do runs op i of the warm-up or timed list on the given client
	// lane and returns the op's latency — the span the workload defines
	// as the op, which may exclude input rendering before it and
	// cleanup after it.
	do(ctx context.Context, lane, i int, warm bool) (time.Duration, error)
	// begin is called between the warm-up and the timed pass, for
	// counter baselines.
	begin()
	// verify checks outputs after the timed pass. It returns how many
	// ops it checked, the timed ops whose output was wrong (they count
	// as failed), and an error when a validity guard does not hold.
	verify(ctx context.Context) (checked int, bad []int, err error)
	// layers fills the per-layer metrics from the traced pass p, staged
	// replays and leaf probes.
	layers(ctx context.Context, p *pass, m metrics) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case wlFigureCells:
		return &figureCells{}, nil
	case wlSimulateCold:
		return &simulate{kind: simCold}, nil
	case wlSimulateWarm:
		return &simulate{kind: simWarm}, nil
	case wlJobsSmall:
		return &simulate{kind: simSmall}, nil
	case wlAdvisorCycle:
		return &advisorCycle{}, nil
	case wlRestart:
		return &restart{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// pass is the raw measurement of one timed pass.
type pass struct {
	lat      []time.Duration // per timed op; negative = failed
	failed   int
	firstErr error
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
	cal      calibrator // the box's speed, sampled after every op
}

// opTime is the time clients spent inside ops, per client: the timed
// wall with the untimed per-op preparation and cleanup taken out.
func (p *pass) opTime(clients int) time.Duration {
	var sum time.Duration
	for _, d := range p.lat {
		if d >= 0 {
			sum += d
		}
	}
	return sum / time.Duration(clients)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs n ops of one list from the workload's client goroutines.
func drive(ctx context.Context, w workload, n int, warm bool) *pass {
	p := &pass{lat: make([]time.Duration, n)}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	limit := w.deadline()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	for lane := 0; lane < w.clients(); lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				octx, cancel := context.WithTimeout(ctx, limit)
				d, err := w.do(octx, lane, i, warm)
				cancel()
				if err == nil && d > limit {
					err = fmt.Errorf("op %d took %s, over its %s deadline", i, d, limit)
				}
				if err != nil {
					d = -1
					mu.Lock()
					p.failed++
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("op %d: %w", i, err)
					}
					mu.Unlock()
				}
				p.lat[i] = d
				if d > 0 {
					p.cal.after(d)
				}
			}
		}(lane)
	}
	wg.Wait()
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.bytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = after.NumGC - before.NumGC
	p.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return p
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the middle value of v (the mean of the middle two for
// an even count), 0 for none.
func median[T ~int64 | ~float64](v []T) T {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runResult is one complete run of a workload: set-up, warm-up, one
// timed pass and the output checks.
type runResult struct {
	w        workload
	p        *pass
	clients  int
	warm     int
	checked  int
	setups   []float64  // seconds, one per set-up
	setupCal calibrator // the box's speed, sampled after every set-up
	guardErr error
	layerErr error
	layers   metrics
	self     map[string]layerTime
}

// The untraced run sets up repeatedly, tearing every set-up but the
// last down again, and reports the median as setup_s: at least
// minSetups times, and until setupBudget is spent or maxSetups reached,
// so a set-up of a millisecond is measured over enough repetitions to
// be steady and one of a second is not repeated for long.
const (
	minSetups   = 3
	maxSetups   = 200
	setupBudget = 300 * time.Millisecond
)

// runOnce executes one run. With e.tr set it is the traced run: one
// set-up, spans kept, per-layer metrics filled.
func runOnce(ctx context.Context, name string, e *env) (*runResult, error) {
	res := &runResult{}
	once := e.tr != nil || e.smoke
	var w workload
	var spent time.Duration
	for r := 0; ; r++ {
		var err error
		if w, err = newWorkload(name); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(e.dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := w.setup(ctx, e); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		d := time.Since(t0)
		res.setups = append(res.setups, d.Seconds())
		res.setupCal.after(d)
		spent += d
		if once || r+1 >= maxSetups || (r+1 >= minSetups && spent >= setupBudget) {
			break
		}
		w.teardown()
	}
	defer w.teardown()

	res.w = w
	res.clients = w.clients()
	warm, timed := w.sizes()
	res.warm = warm
	if wp := drive(ctx, w, warm, true); wp.failed > 0 {
		return nil, fmt.Errorf("%s: warm-up: %w", name, wp.firstErr)
	}
	w.begin()
	res.p = drive(ctx, w, timed, false)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	checked, bad, gerr := w.verify(ctx)
	res.checked, res.guardErr = checked, gerr
	for _, i := range bad {
		if res.p.lat[i] >= 0 {
			res.p.lat[i] = -1
			res.p.failed++
			if res.p.firstErr == nil {
				res.p.firstErr = fmt.Errorf("op %d: output check failed", i)
			}
		}
	}
	if e.tr != nil {
		res.layers = metrics{}
		res.layerErr = w.layers(ctx, res.p, res.layers)
		res.self = e.tr.summary()
	}
	return res, nil
}

// endToEndMetrics derives the user-visible metrics from a run: raw as
// measured, and scaled to reference-box speed by the run's speed
// factors (calib.go), which is what the bench reports and compares.
func endToEndMetrics(r *runResult) (raw, scaled metrics, samples int) {
	p := r.p
	ok := make([]time.Duration, 0, len(p.lat))
	for _, d := range p.lat {
		if d >= 0 {
			ok = append(ok, d)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
	raw = metrics{
		"setup_s":   median(r.setups),
		failedShare: float64(p.failed) / float64(len(p.lat)),
	}
	if n := float64(len(ok)); n > 0 {
		raw["ops_per_s"] = n / p.opTime(r.clients).Seconds()
		raw["op_p50_ms"] = ms(percentile(ok, 50))
		raw["op_p90_ms"] = ms(percentile(ok, 90))
		raw["cpu_ms_per_op"] = ms(p.cpu) / n
		raw["allocs_per_op"] = float64(p.mallocs) / n
		raw["alloc_kib_per_op"] = float64(p.bytes) / 1024 / n
	}
	f, fs := p.cal.factor(), r.setupCal.factor()
	scaled = metrics{}
	for k, v := range raw {
		switch k {
		case "ops_per_s":
			v *= f
		case "op_p50_ms", "op_p90_ms", "cpu_ms_per_op":
			v /= f
		case "setup_s":
			v /= fs
		}
		scaled[k] = v
	}
	return raw, scaled, len(ok)
}

// peakRSSMiB reads the process's high-water resident set size.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// processMetrics fills the process.* rows of the traced run.
func processMetrics(m metrics, untraced, traced *runResult) {
	p := traced.p
	m["process.peak_rss_mib"] = peakRSSMiB()
	m["process.gc_cycles"] = float64(p.gcCycles)
	m["process.gc_pause_ms"] = ms(p.gcPause)
	// Op time at reference-box speed on both sides, so the difference is
	// the tracing and not the box.
	base := float64(untraced.p.opTime(untraced.clients)) / untraced.p.cal.factor()
	if base > 0 {
		with := float64(traced.p.opTime(traced.clients)) / traced.p.cal.factor()
		m["process.trace_overhead_pct"] = 100 * (with - base) / base
	}
}

// timeLoop runs fn n times and returns the mean time of one call.
func timeLoop(n int, fn func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(t0) / time.Duration(n)
}
