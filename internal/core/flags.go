package core

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/systems"
)

// BindFlags registers cmd/cesim's scenario flags straight onto the
// spec's fields; Resolve then checks them exactly as it checks a
// /v1/simulate body. The field table is in docs/SERVICE.md.
func (s *RunSpec) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Workload, "workload", "minife", "workload name (see cmd/tracegen -list)")
	fs.IntVar(&s.Nodes, "nodes", 128, "target node count (one rank per node)")
	fs.IntVar(&s.Iters, "iters", 8, "main-loop iterations")
	fs.DurationVar((*time.Duration)(&s.MTBCENanos), "mtbce", 0, "per-node mean time between CEs (e.g. 5544s); 0 with -system uses Table II")
	fs.DurationVar((*time.Duration)(&s.PerEventNanos), "perevent", 0, "per-CE handling time (e.g. 133ms); 0 with -mode uses the named scenario")
	fs.StringVar(&s.System, "system", "", "Table II system supplying the MTBCE (e.g. exascale-cielo-x10)")
	fs.StringVar(&s.Mode, "mode", "", "logging mode supplying the per-event cost (hardware-only, software-cmci, firmware-emca)")
	fs.Func("fault-mix", "fault-mode mixture replacing the Poisson arrivals: a preset name (field-ddr4, high-altitude, skewed-dimms, bursty-row) or a JSON spec file (docs/FAULTMODEL.md)", func(arg string) error {
		mix, err := systems.ResolveFaultMix(arg)
		if err != nil {
			return err
		}
		s.FaultMix = &mix
		return nil
	})
	fs.Func("target", "node experiencing CEs, or -1 for all nodes (default -1)", func(arg string) error {
		v, err := strconv.ParseInt(arg, 10, 32)
		if err != nil {
			return err
		}
		target := int32(v)
		s.Target = &target
		return nil
	})
	fs.Uint64Var(&s.Seed, "seed", 1, "base random seed")
	fs.IntVar(&s.Reps, "reps", 3, "repetitions (distinct CE schedules)")
}

// BindFlags registers cmd/reproduce's figure-driver flags straight onto
// the spec's fields; the command adds its own artifact selection. Zero
// leaves a field to the drivers' defaults.
func (o *Options) BindFlags(fs *flag.FlagSet) {
	fs.TextVar(&o.Scale, "scale", Reduced, "reduced (scale-compensated) or paper (Table II node counts)")
	fs.IntVar(&o.Nodes, "nodes", 0, "reduced-scale node count override")
	fs.IntVar(&o.Iterations, "iters", 0, "main-loop iterations override")
	fs.IntVar(&o.Reps, "reps", 0, "repetitions per configuration override")
	fs.Uint64Var(&o.Seed, "seed", 1, "base random seed")
	fs.Func("workloads", "comma-separated workload subset (default all nine)", func(list string) error {
		o.Workloads = strings.Split(list, ",")
		return nil
	})
}

// ParseFlags parses args into fs, which must be a ContinueOnError
// set, for commands that report every rejected invocation alike: the
// error comes back for the caller to print as one "name: reason" line
// and exit 1, whether a flag was malformed or the spec it filled does
// not validate. The flag package's own report (the message, then the
// whole usage text) is silenced; -h still prints the usage and exits 0.
// A stray argument is an error too, naming the first: the flag package
// stops at it, so every flag after it would be silently ignored.
func ParseFlags(fs *flag.FlagSet, args []string) error {
	out := fs.Output()
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		fs.SetOutput(out)
		fmt.Fprintf(out, "Usage of %s:\n", fs.Name())
		fs.PrintDefaults()
		os.Exit(0)
	}
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return err
}
