package advise

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/due"
	"repro/internal/faultmodel"
	"repro/internal/predict"
	"repro/internal/retire"
	"repro/internal/systems"
	"repro/internal/tracegen"
)

// Policy knobs with paper-grounded defaults.
const (
	// CEtoDUERatio is the paper's §I observation that correctable
	// error rates run ~20x higher than uncorrectable ones; it converts
	// an MTBCE estimate into a DUE-class node MTBF for the
	// checkpoint-interval retune.
	CEtoDUERatio = 20
	// DefaultRetireThreshold is the suggested CEs-on-page trigger: a
	// few repeats confirm a persistent fault without retiring pages
	// for one-off transients.
	DefaultRetireThreshold = 4
	// DefaultCheckpointNanos and DefaultRestartNanos are the Daly-model
	// costs assumed when the caller does not supply its own: a 4-minute
	// checkpoint write and a 10-minute restore, typical of the
	// petascale systems in Table II.
	DefaultCheckpointNanos = int64(240) * 1e9
	DefaultRestartNanos    = int64(600) * 1e9
	// RecommendHeadroom is the safety margin between a logging mode's
	// minimum-MTBCE floor and the observed MTBCE before the mode is
	// recommended: 2x keeps an estimator wobble (or a modest rate
	// regression) from flapping the verdict.
	RecommendHeadroom = 2.0
)

// Inputs describe one advisory scenario: the deployment parameters
// plus, when available, the node's observed CE behaviour. cmd/advisor
// fills it from flags; the /v1/advise/recommend endpoint fills it from
// query parameters and the node's streamed estimator state.
type Inputs struct {
	// Workload names the synchronization cadence to assume.
	Workload string
	// Nodes is the machine size.
	Nodes int
	// BudgetPct is the acceptable slowdown in percent.
	BudgetPct float64
	// GiBPerNode converts CE rates to per-GiB terms.
	GiBPerNode float64
	// PerEventNanos, when positive, replaces the three catalog logging
	// modes with a single explicit per-CE cost.
	PerEventNanos int64
	// ObservedMTBCENanos is the node's estimated MTBCE; 0 means
	// unknown (the mode floors are still reported, but no mode is
	// recommended and the retirement/checkpoint sections stay empty).
	ObservedMTBCENanos int64
	// FaultKnown marks Fault as a classified verdict.
	FaultKnown bool
	// Fault is the classified fault mode.
	Fault faultmodel.FaultKind
	// FaultConfidence is the classifier's confidence in (0, 1].
	FaultConfidence float64
	// CheckpointNanos and RestartNanos parameterize the Daly retune;
	// zero selects the defaults above.
	CheckpointNanos int64
	RestartNanos    int64
}

// Validate reports errors in the scenario parameters.
func (in Inputs) Validate() error {
	if in.Workload == "" {
		return fmt.Errorf("advise: workload is required")
	}
	if _, err := tracegen.Lookup(in.Workload); err != nil {
		return fmt.Errorf("advise: unknown workload %q", in.Workload)
	}
	if in.Nodes < 1 {
		return fmt.Errorf("advise: nodes must be positive, got %d", in.Nodes)
	}
	if in.BudgetPct <= 0 {
		return fmt.Errorf("advise: budget must be positive, got %v", in.BudgetPct)
	}
	if in.GiBPerNode <= 0 {
		return fmt.Errorf("advise: GiB per node must be positive, got %v", in.GiBPerNode)
	}
	if in.PerEventNanos < 0 || in.ObservedMTBCENanos < 0 ||
		in.CheckpointNanos < 0 || in.RestartNanos < 0 {
		return fmt.Errorf("advise: negative time parameter")
	}
	if in.FaultConfidence < 0 {
		return fmt.Errorf("advise: negative policy parameter")
	}
	return nil
}

func (in Inputs) withDefaults() Inputs {
	if in.CheckpointNanos == 0 {
		in.CheckpointNanos = DefaultCheckpointNanos
	}
	if in.RestartNanos == 0 {
		in.RestartNanos = DefaultRestartNanos
	}
	return in
}

// ModeAssessment is one logging mode's budget-derived floor, and —
// when an observed MTBCE is available — whether the node meets it.
type ModeAssessment struct {
	Mode          string `json:"mode"`
	PerEventNanos int64  `json:"per_event_ns"`
	// Feasible is false when predict reports ErrNoFeasibleMTBCE: no
	// CE rate, however low, keeps this mode inside the budget.
	Feasible bool `json:"feasible"`
	// MinMTBCENanos is the budget floor (0 when infeasible).
	MinMTBCENanos    int64   `json:"min_mtbce_ns,omitempty"`
	MaxCEPerNodeYear float64 `json:"max_ce_per_node_year,omitempty"`
	MaxCEPerGiBYear  float64 `json:"max_ce_per_gib_year,omitempty"`
	VsCielo          float64 `json:"vs_cielo,omitempty"`
	// Satisfied reports observed MTBCE >= floor * RecommendHeadroom;
	// omitted when no observation is available.
	Satisfied *bool `json:"satisfied,omitempty"`
}

// RetirementAdvice is the page-offlining verdict for the classified
// fault mode.
type RetirementAdvice struct {
	// Worth is true when the fault's page footprint fits the budget.
	Worth bool `json:"worth"`
	// FaultKind is the classified mode ("" when unclassified).
	FaultKind string `json:"fault_kind,omitempty"`
	// Confidence echoes the classifier confidence.
	Confidence float64 `json:"confidence,omitempty"`
	// FootprintPages is the mode's page footprint.
	FootprintPages int `json:"footprint_pages,omitempty"`
	// PageBudget is the per-node offlining budget assumed.
	PageBudget int `json:"page_budget"`
	// SuggestedThreshold is the CEs-on-page retirement trigger to
	// configure when Worth.
	SuggestedThreshold int `json:"suggested_threshold,omitempty"`
	// Reason explains the verdict.
	Reason string `json:"reason"`
}

// CheckpointAdvice is the Daly checkpoint-interval retune derived from
// the DUE-rate estimate.
type CheckpointAdvice struct {
	// NodeMTBFNanos is the DUE-class per-node MTBF inferred from the
	// observed MTBCE via the CE:DUE ratio.
	NodeMTBFNanos int64 `json:"node_mtbf_ns"`
	// SystemMTBFNanos is NodeMTBFNanos / Nodes.
	SystemMTBFNanos int64 `json:"system_mtbf_ns"`
	// CheckpointNanos and RestartNanos echo the assumed costs.
	CheckpointNanos int64 `json:"checkpoint_ns"`
	RestartNanos    int64 `json:"restart_ns"`
	// YoungNanos and DalyNanos are the optimal intervals.
	YoungNanos int64 `json:"young_interval_ns"`
	DalyNanos  int64 `json:"daly_interval_ns"`
	// OverheadPct is the expected runtime inflation at the Daly
	// interval under the exponential model.
	OverheadPct float64 `json:"overhead_pct"`
}

// Recommendation is the advisor's machine-readable answer, shared
// verbatim between cmd/advisor -json and GET /v1/advise/recommend.
type Recommendation struct {
	// Scenario parameters the answer was computed for.
	Workload   string  `json:"workload"`
	Nodes      int     `json:"nodes"`
	BudgetPct  float64 `json:"budget_pct"`
	GiBPerNode float64 `json:"gib_per_node"`
	// SyncIntervalNanos is the workload's synchronization cadence.
	SyncIntervalNanos int64 `json:"sync_interval_ns"`
	// ObservedMTBCENanos is the MTBCE the policy was evaluated at (the
	// quantized estimate on the service path); 0 when unknown.
	ObservedMTBCENanos int64 `json:"observed_mtbce_ns,omitempty"`
	// Modes lists every assessed logging mode in catalog order.
	Modes []ModeAssessment `json:"modes"`
	// RecommendedMode is the most detailed logging mode whose floor
	// clears the observed MTBCE with RecommendHeadroom; "" when no
	// observation is available, "hardware-only" when nothing richer
	// fits.
	RecommendedMode string `json:"recommended_mode,omitempty"`
	// Retirement and Checkpoint are present when an observation (and,
	// for retirement, a classification attempt) informed them.
	Retirement *RetirementAdvice `json:"retirement,omitempty"`
	Checkpoint *CheckpointAdvice `json:"checkpoint,omitempty"`
	// Estimate carries the node's exact estimator state on the
	// service path (nil from the offline CLI). It is attached after
	// policy evaluation and never feeds the recommendation cache.
	Estimate *NodeEstimate `json:"estimate,omitempty"`
}

// NodeEstimate is the per-node estimator state on the wire.
type NodeEstimate struct {
	Tenant string `json:"tenant"`
	Node   string `json:"node"`
	Estimate
	// MTBCEQuantizedNanos is the cache-quantum representative the
	// policy answer was computed at.
	MTBCEQuantizedNanos int64 `json:"mtbce_quantized_ns,omitempty"`
	// FaultKind and FaultConfidence report the classifier verdict
	// ("unknown" below the sample floor).
	FaultKind       string  `json:"fault_kind"`
	FaultConfidence float64 `json:"fault_confidence,omitempty"`
}

// Advise evaluates the policy matrix for one scenario. It is a pure
// function of its inputs — the recommendation cache depends on that.
func Advise(in Inputs) (*Recommendation, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	in = in.withDefaults()
	spec, err := tracegen.Lookup(in.Workload)
	if err != nil {
		return nil, err
	}
	sync := predict.SyncInterval(spec)

	rec := &Recommendation{
		Workload: in.Workload, Nodes: in.Nodes,
		BudgetPct: in.BudgetPct, GiBPerNode: in.GiBPerNode,
		SyncIntervalNanos:  sync,
		ObservedMTBCENanos: in.ObservedMTBCENanos,
	}

	type mode struct {
		name     string
		perEvent int64
	}
	var modes []mode
	if in.PerEventNanos > 0 {
		modes = []mode{{name: "custom", perEvent: in.PerEventNanos}}
	} else {
		for _, m := range systems.LoggingModes() {
			modes = append(modes, mode{name: m.Name, perEvent: m.PerEventNanos})
		}
	}
	for _, m := range modes {
		a := ModeAssessment{Mode: m.name, PerEventNanos: m.perEvent}
		res, err := predict.Budget(in.Nodes, m.perEvent, sync, in.BudgetPct, in.GiBPerNode)
		switch {
		case errors.Is(err, predict.ErrNoFeasibleMTBCE):
			// Infeasible modes stay in the matrix: "never at this
			// per-event cost" is the answer, not an error.
		case err != nil:
			return nil, err
		default:
			a.Feasible = true
			a.MinMTBCENanos = res.MinMTBCENanos
			a.MaxCEPerNodeYear = res.MaxCEPerNodeYear
			a.MaxCEPerGiBYear = res.MaxCEPerGiBYear
			a.VsCielo = res.VsCielo
		}
		if in.ObservedMTBCENanos > 0 {
			ok := a.Feasible &&
				float64(in.ObservedMTBCENanos) >= RecommendHeadroom*float64(a.MinMTBCENanos)
			a.Satisfied = &ok
		}
		rec.Modes = append(rec.Modes, a)
	}

	if in.ObservedMTBCENanos > 0 {
		rec.RecommendedMode = pickMode(rec.Modes)
		rec.Retirement = retirement(in)
		rec.Checkpoint = checkpoint(in)
	}
	return rec, nil
}

// pickMode selects the most detailed (highest per-event cost) mode the
// node satisfies, falling back to the cheapest mode offered.
func pickMode(modes []ModeAssessment) string {
	best, bestCost := "", int64(-1)
	cheapest, cheapestCost := "", int64(-1)
	for _, m := range modes {
		if cheapestCost < 0 || m.PerEventNanos < cheapestCost {
			cheapest, cheapestCost = m.Mode, m.PerEventNanos
		}
		if m.Satisfied != nil && *m.Satisfied && m.PerEventNanos > bestCost {
			best, bestCost = m.Mode, m.PerEventNanos
		}
	}
	if best != "" {
		return best
	}
	return cheapest
}

// retirement builds the page-offlining verdict.
func retirement(in Inputs) *RetirementAdvice {
	adv := &RetirementAdvice{PageBudget: retire.DefaultMaxPages}
	if !in.FaultKnown {
		adv.Reason = "fault mode unclassified: not enough CE samples to distinguish " +
			"a concentrated fault from a scattered one; keep logging before retiring pages"
		return adv
	}
	fp := in.Fault.FootprintPages()
	adv.FaultKind = in.Fault.String()
	adv.Confidence = in.FaultConfidence
	adv.FootprintPages = fp
	if fp <= retire.DefaultMaxPages {
		adv.Worth = true
		adv.SuggestedThreshold = DefaultRetireThreshold
		adv.Reason = fmt.Sprintf("%s fault fits in %d of %d budget pages; retirement silences it",
			in.Fault, fp, retire.DefaultMaxPages)
	} else {
		adv.Reason = fmt.Sprintf("%s fault spans %d pages, beyond the %d-page budget; retirement cannot contain it",
			in.Fault, fp, retire.DefaultMaxPages)
	}
	return adv
}

// checkpoint retunes the Daly interval from the DUE rate implied by the
// observed MTBCE.
func checkpoint(in Inputs) *CheckpointAdvice {
	nodeMTBF := int64(float64(in.ObservedMTBCENanos) * CEtoDUERatio)
	if nodeMTBF <= 0 {
		return nil
	}
	cfg := due.Config{
		NodeMTBF:   nodeMTBF,
		Nodes:      in.Nodes,
		Checkpoint: in.CheckpointNanos,
		Restart:    in.RestartNanos,
	}
	adv := &CheckpointAdvice{
		NodeMTBFNanos:   nodeMTBF,
		SystemMTBFNanos: int64(cfg.SystemMTBF()),
		CheckpointNanos: in.CheckpointNanos,
		RestartNanos:    in.RestartNanos,
		YoungNanos:      due.YoungInterval(in.CheckpointNanos, cfg.SystemMTBF()),
		DalyNanos:       due.DalyInterval(in.CheckpointNanos, cfg.SystemMTBF()),
	}
	// A system MTBF below the checkpoint cost makes the expected
	// overhead blow up to +Inf; a non-finite value would abort JSON
	// encoding mid-response, so it stays at 0 ("no meaningful number").
	if pct, err := cfg.ExpectedOverheadPct(); err == nil && !math.IsInf(pct, 0) && !math.IsNaN(pct) {
		adv.OverheadPct = pct
	}
	return adv
}
