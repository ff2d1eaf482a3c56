// Package faultmodel generates per-node correctable-error arrival
// processes from a field-grounded mixture of DRAM fault modes. It is
// the repository's one fault model: it owns the fault taxonomy
// (FaultKind), the DRAM address geometry (Compose, Decompose) and every
// arrival process that is not the paper's single Poisson stream.
//
// The rest of this repository draws CEs from a single homogeneous
// exponential MTBCE stream — the paper's §III-D model. The field data
// says real CE processes are a mixture: "A Systematic Study of DDR4
// DRAM Faults in the Field" reports distinct fault modes (single-cell,
// row, column, bank — the FaultKind taxonomy) with very different
// address footprints, transient vs permanent behaviour, correlated CE
// bursts, and heavy per-DIMM rate skew (a small fraction of DIMMs
// carries most of the errors); "DRAM Errors and Cosmic Rays" shows the
// transient component scales with altitude/particle flux.
//
// A Spec describes such a mixture. It compiles into:
//
//   - a Process, which implements noise.Arrivals (and noise.GapBatcher,
//     so the batched arrival fast path keeps working) and drops into
//     the simulator unchanged: the superposition of the per-mode
//     renewal processes, with a lognormal per-node rate multiplier;
//   - a Generator, which produces the same arrival schedule as Events
//     carrying fault-footprint addresses, for the advisor's footprint
//     classifiers and for NDJSON CE trace export;
//   - a node-level machine-check configuration (StormMCAConfig) whose
//     burst train feeds the mca CMCI-storm/poll path.
//
// Determinism contract: all randomness derives from (seed, node) via
// rng.NewStream. A node's stream yields one 64-bit key; per-(node,
// mode) streams are split from that key with rng.NewStream(key, ...),
// so every mode owns an independent splitmix64-derived stream. Modes
// are put in canonical order before any stream is assigned, which
// makes composition order-independent: permuting Spec.Modes yields
// bit-identical schedules. No wall clock, no map iteration feeds
// output; replay with the same seed and spec is bit-identical.
package faultmodel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mode is one fault mode of a mixture.
type Mode struct {
	// Kind names the FaultKind footprint: "cell", "row", "column" or
	// "bank".
	Kind string `json:"kind"`
	// Weight is the mode's share of the mixture's aggregate CE rate.
	// Weights must be positive and sum to 1 across the spec.
	Weight float64 `json:"weight"`
	// Transient marks the fault as particle-strike-like rather than a
	// permanent hardware defect: its rate scales with Spec.Flux, and
	// each burst train comes from a fresh footprint (a new strike)
	// instead of repeating one fault's addresses.
	Transient bool `json:"transient,omitempty"`
	// BurstLen is the mean number of CEs per correlated burst train
	// (geometrically distributed, >= 1). Zero means 1: no bursts, a
	// plain renewal process.
	BurstLen float64 `json:"burst_len,omitempty"`
	// BurstGapNanos is the mean gap between CEs inside a burst train.
	// Required when BurstLen > 1.
	BurstGapNanos int64 `json:"burst_gap_ns,omitempty"`
}

// Spec is a fault-mode mixture, the JSON format accepted by
// cmd/cesim -fault-mix and the cesimd fault_mix request field
// (docs/FAULTMODEL.md).
type Spec struct {
	// MTBCENanos is the aggregate per-node mean time between CEs of
	// the mixture at Flux 1 before per-DIMM skew. Optional in catalog
	// presets, where the scenario supplies the rate via WithMTBCE.
	MTBCENanos int64 `json:"mtbce_ns,omitempty"`
	// Modes is the mixture composition.
	Modes []Mode `json:"modes"`
	// SkewSigma is the sigma of the lognormal per-node rate multiplier
	// (median 1). Zero disables skew; the DDR4 field study's "few
	// DIMMs carry most errors" concentration corresponds to sigma in
	// the 1-2.5 range.
	SkewSigma float64 `json:"skew_sigma,omitempty"`
	// Flux scales the rate of every Transient mode, the altitude/
	// particle-flux knob of the cosmic-ray study (sea level = 1,
	// roughly x4-10 at aircraft altitudes). Zero means 1.
	Flux float64 `json:"flux,omitempty"`
}

// WithMTBCE returns a copy of the spec with the aggregate per-node
// MTBCE set, leaving an explicit spec value in place. Catalog presets
// carry composition only; the scenario's rate is attached here.
func (s Spec) WithMTBCE(mtbceNanos int64) Spec {
	if s.MTBCENanos == 0 {
		s.MTBCENanos = mtbceNanos
	}
	return s
}

// Bounds on spec values that arrive from outside (a spec file, a
// fault_mix request field). They sit far beyond any field-study
// population and exist so that every accepted spec runs: drawing a
// train's length costs time proportional to it, and a node's lognormal
// multiplier exp(sigma*z), |z| <= 12, must stay a normal float for its
// gap means to stay positive.
const (
	maxBurstLen  = 1 << 20
	maxSkewSigma = 8
)

// badNumber reports NaN or infinities, which would otherwise slip
// through ordering comparisons (NaN compares false against every
// bound) and poison every downstream rate computation.
func badNumber(v float64) bool {
	return math.IsNaN(v) || math.IsInf(v, 0)
}

// kindedMode is a Mode with its kind parsed.
type kindedMode struct {
	Mode
	kind FaultKind
}

// Validate reports spec errors. Every error names the offending field
// and, for mode errors, the mode's index and kind, so a hand-written
// JSON spec fails with one precise line.
func (s Spec) Validate() error {
	_, err := s.validated()
	return err
}

// validated checks the spec and returns its modes with their kinds
// parsed — the one ParseKind call per mode on the way to a Process, a
// Generator or a storm configuration.
func (s Spec) validated() ([]kindedMode, error) {
	if s.MTBCENanos < 0 {
		return nil, fmt.Errorf("faultmodel: mtbce_ns must be >= 0, got %d", s.MTBCENanos)
	}
	if len(s.Modes) == 0 {
		return nil, fmt.Errorf("faultmodel: spec has no modes")
	}
	modes := make([]kindedMode, len(s.Modes))
	sum := 0.0
	for i, m := range s.Modes {
		kind, err := ParseKind(m.Kind)
		if err != nil {
			return nil, fmt.Errorf("faultmodel: modes[%d]: unknown fault kind %q (want cell, row, column or bank)", i, m.Kind)
		}
		if badNumber(m.Weight) || m.Weight <= 0 {
			return nil, fmt.Errorf("faultmodel: modes[%d] (%s): weight must be a positive finite number, got %v", i, kind, m.Weight)
		}
		if badNumber(m.BurstLen) || (m.BurstLen != 0 && m.BurstLen < 1) || m.BurstLen > maxBurstLen {
			return nil, fmt.Errorf("faultmodel: modes[%d] (%s): burst_len must be in [1, %d] (or 0 for no bursts), got %v", i, kind, maxBurstLen, m.BurstLen)
		}
		if m.BurstGapNanos < 0 {
			return nil, fmt.Errorf("faultmodel: modes[%d] (%s): burst_gap_ns must be >= 0, got %d", i, kind, m.BurstGapNanos)
		}
		if m.BurstLen > 1 && m.BurstGapNanos == 0 {
			return nil, fmt.Errorf("faultmodel: modes[%d] (%s): burst_len %v needs a positive burst_gap_ns", i, kind, m.BurstLen)
		}
		sum += m.Weight
		modes[i] = kindedMode{m, kind}
	}
	// The tolerance absorbs decimal-literal rounding ("0.1+0.2"), not
	// genuinely unnormalized mixtures.
	if math.Abs(sum-1) > 1e-6 {
		return nil, fmt.Errorf("faultmodel: mode weights must sum to 1, got %v", sum)
	}
	if badNumber(s.SkewSigma) || s.SkewSigma < 0 || s.SkewSigma > maxSkewSigma {
		return nil, fmt.Errorf("faultmodel: skew_sigma must be in [0, %d], got %v", maxSkewSigma, s.SkewSigma)
	}
	if badNumber(s.Flux) || s.Flux < 0 {
		return nil, fmt.Errorf("faultmodel: flux must be a finite number >= 0 (0 means 1), got %v", s.Flux)
	}
	return modes, nil
}

// flux returns the effective transient-rate multiplier.
func (s Spec) flux() float64 {
	if s.Flux == 0 {
		return 1
	}
	return s.Flux
}

// canonicalize sorts modes by a total order on their parameters.
// Stream assignment follows canonical position, so a permuted
// Spec.Modes compiles to the bit-identical process — composition is
// order-independent by construction.
func canonicalize(modes []kindedMode) {
	sort.SliceStable(modes, func(i, j int) bool {
		a, b := modes[i], modes[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.Transient != b.Transient {
			return !a.Transient
		}
		if a.Weight != b.Weight {
			return a.Weight < b.Weight
		}
		if a.BurstLen != b.BurstLen {
			return a.BurstLen < b.BurstLen
		}
		return a.BurstGapNanos < b.BurstGapNanos
	})
}

// compiledMode is one mode with rates resolved against the spec's
// MTBCE and flux.
type compiledMode struct {
	kind      FaultKind
	transient bool
	// rate is the mode's long-run CE rate in events per nanosecond at
	// skew multiplier 1.
	rate float64
	// meanGap is 1/rate.
	meanGap float64
	// quietGap is the mean gap between burst trains; burstGap the mean
	// gap inside a train of mean length burstLen. burstLen 1 recovers
	// a plain exponential renewal with mean quietGap = meanGap.
	quietGap float64
	burstGap float64
	burstLen float64
}

// compile validates the spec and resolves its modes, in canonical
// order, to rates; it also returns the ordered modes themselves, which
// label renders. MTBCENanos must be positive.
func (s Spec) compile() ([]compiledMode, []kindedMode, error) {
	modes, err := s.validated()
	if err != nil {
		return nil, nil, err
	}
	if s.MTBCENanos <= 0 {
		return nil, nil, fmt.Errorf("faultmodel: spec needs a positive mtbce_ns (set it in the spec or via WithMTBCE), got %d", s.MTBCENanos)
	}
	canonicalize(modes)
	out := make([]compiledMode, len(modes))
	for i, m := range modes {
		c := compiledMode{kind: m.kind, transient: m.Transient, burstLen: m.BurstLen, burstGap: float64(m.BurstGapNanos)}
		if c.burstLen == 0 {
			c.burstLen = 1
		}
		c.rate = m.Weight / float64(s.MTBCENanos)
		if m.Transient {
			c.rate *= s.flux()
		}
		c.meanGap = 1 / c.rate
		if c.meanGap < 1 {
			return nil, nil, fmt.Errorf("faultmodel: modes[%d] (%s): rate %v CEs/ns (weight x flux / mtbce_ns) exceeds one CE per nanosecond", i, m.kind, c.rate)
		}
		// The long-run mean gap of the train process is
		// (quiet + (L-1)*burstGap) / L; solve for the quiet gap that
		// hits the mode's target rate.
		c.quietGap = c.burstLen*c.meanGap - (c.burstLen-1)*c.burstGap
		if c.quietGap <= 0 {
			return nil, nil, fmt.Errorf("faultmodel: modes[%d] (%s): burst train (len %v, gap %vns) alone exceeds the mode's mean gap %.0fns; lower burst_len or burst_gap_ns", i, m.kind, c.burstLen, c.burstGap, c.meanGap)
		}
		out[i] = c
	}
	return out, modes, nil
}

// ParseSpec decodes and validates a JSON mixture spec. Unknown fields
// are rejected, and syntax or type errors are reported with the line
// and column of the offending byte, so a typo in a hand-written file
// fails with one precise location.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, specError(data, err)
	}
	// A spec file is one JSON document; trailing garbage is a mangled
	// file, not a second spec.
	if dec.More() {
		return Spec{}, fmt.Errorf("faultmodel: %s: trailing data after spec document", lineCol(data, dec.InputOffset()))
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// specError attaches line:column positions to the decode errors that
// carry a byte offset.
func specError(data []byte, err error) error {
	switch e := err.(type) {
	case *json.SyntaxError:
		return fmt.Errorf("faultmodel: %s: %v", lineCol(data, e.Offset), err)
	case *json.UnmarshalTypeError:
		return fmt.Errorf("faultmodel: %s: %v", lineCol(data, e.Offset), err)
	}
	return fmt.Errorf("faultmodel: %v", err)
}

// lineCol converts a byte offset into a 1-based line:column label.
func lineCol(data []byte, off int64) string {
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	line, col := 1, 1
	for _, b := range data[:off] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("line %d:%d", line, col)
}

// String renders the canonical composition, used in error messages and
// result metadata. It renders unvalidated specs too: an unknown kind
// sorts first.
func (s Spec) String() string {
	modes := make([]kindedMode, len(s.Modes))
	for i, m := range s.Modes {
		kind, _ := ParseKind(m.Kind)
		modes[i] = kindedMode{m, kind}
	}
	canonicalize(modes)
	return s.label(modes)
}

// label renders the spec over its canonically ordered modes.
func (s Spec) label(modes []kindedMode) string {
	var b strings.Builder
	fmt.Fprintf(&b, "faultmix(mtbce=%dns", s.MTBCENanos)
	for _, m := range modes {
		fmt.Fprintf(&b, ",%s:%.3g", m.Kind, m.Weight)
		if m.Transient {
			b.WriteString("t")
		}
		if m.BurstLen > 1 {
			fmt.Fprintf(&b, "x%.3g@%dns", m.BurstLen, m.BurstGapNanos)
		}
	}
	if s.SkewSigma > 0 {
		fmt.Fprintf(&b, ",skew=%.3g", s.SkewSigma)
	}
	if s.flux() != 1 {
		fmt.Fprintf(&b, ",flux=%.3g", s.flux())
	}
	b.WriteString(")")
	return b.String()
}
