// Command bench is the repository's benchmark: six workloads, from the
// paper's figure sweeps to a daemon restart, each measured end to end
// and — with -trace — layer by layer, every layer timed from outside
// through its public functions. See README.md.
//
//	go run ./bench -all -out bench/out            # every workload, one child process each
//	go run ./bench -workload jobs_small -seed 2   # one workload in this process
//	go run ./bench -all -trace                    # + spans, staged replays, leaf probes
//	go run ./bench -compare bench/out-a bench/out-b
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many ops the figure was taken over, where it is a
	// statistic of the timed pass.
	Samples int `json:"samples,omitempty"`
}

// envInfo records where a result was measured.
type envInfo struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

// report is bench/out/<workload>.json.
type report struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Smoke    bool    `json:"smoke,omitempty"`
	// Comparable is false when the box has fewer than two CPUs: the
	// numbers are real but not the benchmark's fixed load shape.
	Comparable bool    `json:"comparable"`
	Env        envInfo `json:"env"`

	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Checked   int    `json:"checked"` // ops whose output was checked
	Warmup    int    `json:"warmup"`
	Clients   int    `json:"clients"`
	Error     string `json:"error,omitempty"`

	// SpeedFactor is how much slower than the calm reference box this
	// machine ran during the timed pass (SetupSpeedFactor: during the
	// set-ups), measured by the calibration kernel (calib.go). EndToEnd
	// holds the time metrics scaled by it to reference-box speed — the
	// values the bench prints, compares and hands the driver — and
	// EndToEndRaw the same metrics as the clock read them.
	SpeedFactor      float64              `json:"speed_factor"`
	SetupSpeedFactor float64              `json:"setup_speed_factor"`
	EndToEnd         map[string]value     `json:"end_to_end"`
	EndToEndRaw      map[string]value     `json:"end_to_end_raw"`
	PerLayer         map[string]value     `json:"per_layer,omitempty"`
	SelfTime         map[string]layerTime `json:"self_time,omitempty"`
	Trace            string               `json:"trace,omitempty"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func environment() envInfo {
	commit := os.Getenv("BENCH_COMMIT") // run.sh sets it; a bare checkout has no git
	if commit == "" {
		commit = "unknown"
	}
	return envInfo{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: commit,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

type options struct {
	workload     string
	all          bool
	seed         uint64
	seconds      float64
	trace        bool
	smoke        bool
	out          string
	compare      bool
	timeout      time.Duration
	updateGolden bool
}

// normalize lets the trace flag take a separate 0/1 value, as the
// driver passes it, while staying a plain boolean flag for people.
func normalize(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process: "+strings.Join(workloadNames, ", "))
	fs.BoolVar(&o.all, "all", false, "run every workload, each in its own child process")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", nominalSeconds, "run length the op lists are sized for")
	fs.BoolVar(&o.trace, "trace", false, "also run traced and report the per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "cut every op list to about two seconds, checks still on")
	fs.StringVar(&o.out, "out", "bench/out", "output directory for <workload>.json, traces and scratch data")
	fs.BoolVar(&o.compare, "compare", false, "compare two results: -compare A B (files or -out directories)")
	fs.DurationVar(&o.timeout, "timeout", 170*time.Second, "time limit of one workload")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "rewrite bench/testdata/figure_cells.seed1.sha256 (with -workload figure_cells -seed 1)")
	if err := fs.Parse(normalize(args)); err != nil {
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}

	// The fixed load shape: two cores. Fewer is measured but marked.
	procs := 2
	if runtime.NumCPU() < 2 {
		procs = 1
	}
	runtime.GOMAXPROCS(procs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results: -compare A B")
			return 2
		}
		return compare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case o.all:
		return runAll(ctx, o, stdout, stderr)
	case o.workload != "":
		ctx, cancel := context.WithTimeout(ctx, o.timeout)
		defer cancel()
		rep, err := runWorkload(ctx, o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !rep.Correct {
			return 1
		}
		return 0
	}
	fs.Usage()
	return 2
}

// runWorkload runs one workload in this process, writes its report and
// prints every metric, the result line last.
func runWorkload(ctx context.Context, o options, stdout io.Writer) (*report, error) {
	if _, err := newWorkload(o.workload); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	scratch := filepath.Join(o.out, fmt.Sprintf("scratch-%s-%d", o.workload, os.Getpid()))
	defer os.RemoveAll(scratch)

	e := &env{seed: o.seed, scale: o.seconds / nominalSeconds, smoke: o.smoke, dir: scratch}
	untraced, err := runOnce(ctx, o.workload, e)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
		Comparable: runtime.GOMAXPROCS(0) == 2, Env: environment(),
		Attempted: len(untraced.p.lat), Failed: untraced.p.failed, Checked: untraced.checked,
		Warmup: untraced.warm, Clients: untraced.clients,
		SpeedFactor: untraced.p.cal.factor(), SetupSpeedFactor: untraced.setupCal.factor(),
		EndToEnd: map[string]value{}, EndToEndRaw: map[string]value{},
	}
	fail := func(err error) {
		if err != nil && rep.Error == "" {
			rep.Error = err.Error()
		}
	}
	fail(untraced.p.firstErr)
	fail(untraced.guardErr)

	raw, e2e, samples := endToEndMetrics(untraced)
	for _, def := range endToEnd {
		n := samples
		if def.Name == "setup_s" {
			n = len(untraced.setups)
		}
		rep.EndToEnd[def.Name] = value{Value: e2e[def.Name], Unit: def.Unit, Samples: n}
		rep.EndToEndRaw[def.Name] = value{Value: raw[def.Name], Unit: def.Unit, Samples: n}
	}
	rep.EndToEnd[failedShare] = value{Value: e2e[failedShare], Unit: "ratio", Samples: rep.Attempted}

	if o.updateGolden {
		fc, ok := untraced.w.(*figureCells)
		if !ok || o.seed != 1 {
			return nil, fmt.Errorf("-update-golden needs -workload %s -seed 1", wlFigureCells)
		}
		if err := fc.writeGolden(filepath.Join("bench", "testdata", "figure_cells.seed1.sha256")); err != nil {
			return nil, err
		}
	}

	if o.trace {
		// The traced run starts from a collected heap, not from what the
		// untraced run left behind.
		debug.FreeOSMemory()
		te := *e
		te.tr = &tracer{}
		traced, err := runOnce(ctx, o.workload, &te)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		fail(traced.p.firstErr)
		fail(traced.guardErr)
		fail(traced.layerErr)
		rep.Failed += traced.p.failed
		processMetrics(traced.layers, untraced, traced)
		rep.PerLayer = map[string]value{}
		for _, def := range perLayer {
			rep.PerLayer[def.Name] = value{Value: traced.layers[def.Name], Unit: def.Unit}
		}
		rep.SelfTime = traced.self
		rep.Trace = filepath.Join(o.out, o.workload+".trace.json")
		if err := te.tr.write(rep.Trace); err != nil {
			return nil, err
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Error == ""

	if err := writeJSON(filepath.Join(o.out, o.workload+".json"), rep); err != nil {
		return nil, err
	}
	printReport(stdout, rep)

	// The result line: the end-to-end metrics of the untraced run, or
	// with -trace the per-layer metrics of the traced one.
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	if o.trace {
		for k, v := range rep.PerLayer {
			line.Metrics[k] = value{Value: v.Value, Unit: v.Unit}
		}
	} else {
		for _, def := range endToEnd {
			v := rep.EndToEnd[def.Name]
			line.Metrics[def.Name] = value{Value: v.Value, Unit: v.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return rep, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport prints every metric by name with its unit.
func printReport(w io.Writer, r *report) {
	status := "ok"
	if !r.Correct {
		status = "FAILED: " + r.Error
	}
	comparable := ""
	if !r.Comparable {
		comparable = " not_comparable (GOMAXPROCS < 2)"
	}
	fmt.Fprintf(w, "== %s seed=%d seconds=%g clients=%d warmup=%d attempted=%d failed=%d checked=%d speed_factor=%.3f (set-up %.3f) %s%s\n",
		r.Workload, r.Seed, r.Seconds, r.Clients, r.Warmup, r.Attempted, r.Failed, r.Checked,
		r.SpeedFactor, r.SetupSpeedFactor, status, comparable)
	for _, def := range append(append([]metricDef(nil), endToEnd...), metricDef{Name: failedShare}) {
		v := r.EndToEnd[def.Name]
		fmt.Fprintf(w, "%-18s %-26s %14.6g %-6s (n=%d", r.Workload, def.Name, v.Value, v.Unit, v.Samples)
		if raw, ok := r.EndToEndRaw[def.Name]; ok && raw.Value != v.Value {
			fmt.Fprintf(w, "; %.6g as the clock read it", raw.Value)
		}
		fmt.Fprintln(w, ")")
	}
	for _, def := range perLayer {
		if v, ok := r.PerLayer[def.Name]; ok {
			fmt.Fprintf(w, "%-18s %-26s %14.6g %s\n", r.Workload, def.Name, v.Value, v.Unit)
		}
	}
	if len(r.SelfTime) > 0 {
		names := make([]string, 0, len(r.SelfTime))
		for n := range r.SelfTime {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			lt := r.SelfTime[n]
			fmt.Fprintf(w, "%-18s span %-24s count=%-7d total=%.3fms self=%.3fms\n", r.Workload, n, lt.Count, lt.TotalMs, lt.SelfMs)
		}
	}
}

// runAll runs every workload in its own child process, so no workload
// inherits another's heap, caches or goroutines.
func runAll(ctx context.Context, o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames {
		args := []string{
			"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-out", o.out, "-timeout", o.timeout.String(),
			fmt.Sprintf("-trace=%t", o.trace), fmt.Sprintf("-smoke=%t", o.smoke),
		}
		// A report left by an earlier run must not stand in for this one.
		if err := os.Remove(filepath.Join(o.out, name+".json")); err != nil && !errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		cctx, cancel := context.WithTimeout(ctx, o.timeout+10*time.Second)
		cmd := exec.CommandContext(cctx, self, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		err := cmd.Run()
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}
