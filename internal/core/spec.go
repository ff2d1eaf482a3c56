package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/faultmodel"
	"repro/internal/noise"
	"repro/internal/systems"
	"repro/internal/tracegen"
)

// Every experiment in the paper is one cell of the same matrix. A
// single run is a RunSpec, a figure regeneration is an Options; flags
// (flags.go), HTTP bodies, journal payloads and cluster cells are
// these two types, checked and resolved here and nowhere else. The
// field tables are in docs/SERVICE.md.

// Limits bound what one spec may ask of a process. A zero field is
// unbounded: the command-line tools run whatever they are told, while
// cesimd and the coordinator admit within DefaultLimits unless
// server.Config says otherwise.
type Limits struct {
	MaxNodes, MaxIters, MaxReps int
}

// DefaultLimits is what the service tier admits by default: the
// paper's largest simulated system, and iteration and repetition
// counts well past anything its figures use.
func DefaultLimits() Limits { return Limits{MaxNodes: 16384, MaxIters: 4096, MaxReps: 64} }

// Fixed ceilings on the two Options fields no deployment configures:
// the trace budget never needs to exceed what Paper scale picks for
// itself, and the span is 40x the default.
const (
	maxOpsBudget = 64 << 20
	maxSpanNanos = 60 * nsPerS
)

// checkRange reports v outside [min, max] in the spec's field wording;
// max <= 0 leaves the upper side open.
func checkRange(field string, v, min, max int) error {
	switch {
	case max > 0 && (v < min || v > max):
		return fmt.Errorf("%s must be in [%d, %d], got %d", field, min, max, v)
	case v < min:
		return fmt.Errorf("%s must be at least %d, got %d", field, min, v)
	}
	return nil
}

// RunSpec is one (workload, scale, CE scenario) run: the POST
// /v1/simulate body, the journaled payload of a simulate job and what
// cmd/cesim's flags fill in. Exactly one of System/MTBCENanos and
// exactly one of Mode/PerEventNanos must be set, unless a fault mix
// carries the MTBCE itself.
type RunSpec struct {
	Workload string `json:"workload"`
	Nodes    int    `json:"nodes"`
	// Iters defaults to 8.
	Iters int `json:"iters,omitempty"`
	// System names a Table II row supplying the MTBCE.
	System string `json:"system,omitempty"`
	// MTBCENanos is the per-node mean time between CEs.
	MTBCENanos int64 `json:"mtbce_ns,omitempty"`
	// Mode names a logging scenario supplying the per-event cost.
	Mode string `json:"mode,omitempty"`
	// PerEventNanos is the per-CE handling time.
	PerEventNanos int64 `json:"per_event_ns,omitempty"`
	// FaultMix is an inline fault-mode mixture spec replacing the
	// homogeneous Poisson arrival process (docs/FAULTMODEL.md). The
	// scenario's MTBCE supplies the aggregate rate unless the spec
	// carries its own mtbce_ns. Mutually exclusive with FaultMixPreset.
	FaultMix *faultmodel.Spec `json:"fault_mix,omitempty"`
	// FaultMixPreset names a systems.FaultMixes preset composition.
	FaultMixPreset string `json:"fault_mix_preset,omitempty"`
	// Target is the node experiencing CEs; nil or -1 means all nodes.
	Target *int32 `json:"target,omitempty"`
	// Seed defaults to 1. It seeds the trace; the CE schedule of
	// repetition i uses Seed+1+i.
	Seed uint64 `json:"seed,omitempty"`
	// Reps defaults to 3.
	Reps int `json:"reps,omitempty"`
}

// Resolve validates the spec against lim, fills its defaults in place
// and produces the experiment config and scenario it describes. A
// resolved spec marshals with the defaults filled, and resolving what
// it unmarshals to yields the identical run: journal recovery relies
// on that to rebuild a job, fault-mix process included, bit for bit.
func (s *RunSpec) Resolve(lim Limits) (ExperimentConfig, Scenario, error) {
	var zc ExperimentConfig
	var zs Scenario
	if s.Workload == "" {
		return zc, zs, fmt.Errorf("workload is required")
	}
	if _, err := tracegen.Lookup(s.Workload); err != nil {
		return zc, zs, fmt.Errorf("unknown workload %q", s.Workload)
	}
	if err := checkRange("nodes", s.Nodes, 2, lim.MaxNodes); err != nil {
		return zc, zs, err
	}
	if s.Iters == 0 {
		s.Iters = 8
	}
	if err := checkRange("iters", s.Iters, 1, lim.MaxIters); err != nil {
		return zc, zs, err
	}
	if s.Reps == 0 {
		s.Reps = 3
	}
	if err := checkRange("reps", s.Reps, 1, lim.MaxReps); err != nil {
		return zc, zs, err
	}
	if s.Seed == 0 {
		s.Seed = 1
	}

	var mixSpec *faultmodel.Spec
	switch {
	case s.FaultMix != nil && s.FaultMixPreset != "":
		return zc, zs, fmt.Errorf("set fault_mix or fault_mix_preset, not both")
	case s.FaultMixPreset != "":
		mix, err := systems.FaultMixByName(s.FaultMixPreset)
		if err != nil {
			return zc, zs, fmt.Errorf("unknown fault mix %q (want %s)", s.FaultMixPreset, strings.Join(systems.FaultMixNames(), ", "))
		}
		mixSpec = &mix.Spec
	case s.FaultMix != nil:
		mixSpec = s.FaultMix
	}

	mtbce := s.MTBCENanos
	switch {
	case s.System != "" && s.MTBCENanos != 0:
		return zc, zs, fmt.Errorf("set system or mtbce_ns, not both")
	case mixSpec != nil && mixSpec.MTBCENanos != 0 && (s.System != "" || s.MTBCENanos != 0):
		return zc, zs, fmt.Errorf("the fault mix carries mtbce_ns; don't also set system or mtbce_ns")
	case s.System != "":
		sys, err := systems.ByName(s.System)
		if err != nil {
			return zc, zs, fmt.Errorf("unknown system %q", s.System)
		}
		mtbce = sys.MTBCENanos()
	case s.MTBCENanos <= 0:
		if mixSpec == nil || mixSpec.MTBCENanos <= 0 {
			return zc, zs, fmt.Errorf("provide a positive mtbce_ns, a system name, or a fault mix carrying mtbce_ns")
		}
		mtbce = mixSpec.MTBCENanos
	}

	perEvent := s.PerEventNanos
	switch {
	case s.Mode != "" && s.PerEventNanos != 0:
		return zc, zs, fmt.Errorf("set mode or per_event_ns, not both")
	case s.Mode != "":
		m, err := systems.LoggingModeByName(s.Mode)
		if err != nil {
			return zc, zs, fmt.Errorf("unknown logging mode %q", s.Mode)
		}
		perEvent = m.PerEventNanos
	case s.PerEventNanos <= 0:
		return zc, zs, fmt.Errorf("provide a positive per_event_ns or a mode name")
	}

	target := noise.AllNodes
	if s.Target != nil {
		target = *s.Target
	}
	if target < noise.AllNodes || (target >= 0 && int(target) >= s.Nodes) {
		return zc, zs, fmt.Errorf("target %d outside [-1, %d)", target, s.Nodes)
	}

	cfg := ExperimentConfig{
		Workload: s.Workload, Nodes: s.Nodes, Iterations: s.Iters, TraceSeed: s.Seed,
	}
	sc := Scenario{
		MTBCE:    mtbce,
		PerEvent: noise.Fixed(perEvent),
		Target:   target,
		Seed:     s.Seed + 1,
	}
	if mixSpec != nil {
		proc, err := mixSpec.WithMTBCE(mtbce).Process()
		if err != nil {
			return zc, zs, fmt.Errorf("fault mix: %v", err)
		}
		sc.Arrivals = proc
	}
	return cfg, sc, nil
}

// Validate checks a sweep spec against lim. Zero fields select the
// drivers' defaults and always pass; journal replay does not call
// this, so what one version accepted still recovers under the next.
func (o Options) Validate(lim Limits) error {
	if o.Scale != Reduced && o.Scale != Paper {
		return fmt.Errorf("unknown scale %d (want reduced or paper)", int(o.Scale))
	}
	figures := o.Figures
	if o.Figure != "" {
		if len(figures) != 0 {
			return fmt.Errorf("set figure or figures, not both")
		}
		figures = []string{o.Figure}
	}
	for i, id := range figures {
		if _, err := figureByID(id); err != nil {
			return err
		}
		// A repeated cell would be planned, leased and merged twice.
		if slices.Contains(figures[:i], id) {
			return fmt.Errorf("figure %q listed twice", id)
		}
	}
	for i, wl := range o.Workloads {
		if _, err := tracegen.Lookup(wl); err != nil {
			return fmt.Errorf("unknown workload %q", wl)
		}
		if slices.Contains(o.Workloads[:i], wl) {
			return fmt.Errorf("workload %q listed twice", wl)
		}
	}
	if o.Nodes != 0 {
		if err := checkRange("nodes", o.Nodes, 2, lim.MaxNodes); err != nil {
			return err
		}
	}
	if o.Iterations != 0 {
		if err := checkRange("iters", o.Iterations, 1, lim.MaxIters); err != nil {
			return err
		}
	}
	if o.Reps != 0 {
		if err := checkRange("reps", o.Reps, 1, lim.MaxReps); err != nil {
			return err
		}
	}
	if o.SpanNanos < 0 || o.SpanNanos > maxSpanNanos {
		return fmt.Errorf("span_ns must be in [0, %d], got %d", maxSpanNanos, o.SpanNanos)
	}
	if o.OpsBudget < 0 || o.OpsBudget > maxOpsBudget {
		return fmt.Errorf("ops_budget must be in [0, %d], got %d", maxOpsBudget, o.OpsBudget)
	}
	return nil
}
