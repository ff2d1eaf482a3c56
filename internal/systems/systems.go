// Package systems encodes the correctable-error parameters of the
// measured and hypothesized systems in the paper's Table II, plus the
// three logging-overhead scenarios used throughout the evaluation.
package systems

import (
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/faultmodel"
)

// SecondsPerYear is the year length used to convert CE rates to MTBCE.
const SecondsPerYear = 365.25 * 24 * 3600

// Class groups Table II rows.
type Class int

// Classes of systems in Table II.
const (
	// DataCenter rows (Google, Facebook) are field-study rates with no
	// node counts; they calibrate the rate axis only.
	DataCenter Class = iota
	// HPC rows are existing systems simulated in Fig. 4.
	HPC
	// Exascale rows are the hypothetical systems of Fig. 5.
	Exascale
)

// System is one Table II row.
type System struct {
	Name          string
	Class         Class
	CEPerNodeYear float64 // correctable errors per node per year
	GiBPerNode    float64 // DRAM per node (midpoint when a range was given)
	CEPerGiBYear  float64 // correctable errors per GiB per year
	MTBCESeconds  float64 // mean time between CEs per node, as stated in Table II
	Nodes         int     // physical nodes (0 when not applicable)
	SimNodes      int     // nodes simulated in the paper (0 when not simulated)
}

// MTBCENanos returns the stated MTBCE(node) in nanoseconds.
func (s System) MTBCENanos() int64 {
	return int64(s.MTBCESeconds * 1e9)
}

// ComputedMTBCESeconds derives MTBCE from the CE-per-node-year column.
// Table II's stated MTBCE values differ from this derivation by up to
// ~13% for some rows (the paper rounded intermediate quantities); the
// stated values are authoritative for reproducing the figures.
func (s System) ComputedMTBCESeconds() float64 {
	if s.CEPerNodeYear <= 0 {
		return math.Inf(1)
	}
	return SecondsPerYear / s.CEPerNodeYear
}

// Catalog returns all Table II rows in presentation order.
func Catalog() []System {
	return []System{
		{Name: "google", Class: DataCenter, CEPerNodeYear: 22696, GiBPerNode: 2.5, CEPerGiBYear: 11384, MTBCESeconds: 1368},
		{Name: "facebook", Class: DataCenter, CEPerNodeYear: 5964, GiBPerNode: 13, CEPerGiBYear: 460, MTBCESeconds: 5292},
		{Name: "cielo", Class: HPC, CEPerNodeYear: 26.35, GiBPerNode: 32, CEPerGiBYear: 0.82, MTBCESeconds: 1.2e6, Nodes: 8894, SimNodes: 8192},
		{Name: "trinity", Class: HPC, CEPerNodeYear: 89.6, GiBPerNode: 128, CEPerGiBYear: 0.82, MTBCESeconds: 311400, Nodes: 19420, SimNodes: 16384},
		{Name: "summit", Class: HPC, CEPerNodeYear: 425.6, GiBPerNode: 608, CEPerGiBYear: 0.82, MTBCESeconds: 62280, Nodes: 4608, SimNodes: 4096},
		{Name: "exascale-cielo", Class: Exascale, CEPerNodeYear: 574, GiBPerNode: 700, CEPerGiBYear: 0.82, MTBCESeconds: 55440, Nodes: 16384, SimNodes: 16384},
		{Name: "exascale-cielo-x10", Class: Exascale, CEPerNodeYear: 5740, GiBPerNode: 700, CEPerGiBYear: 8.2, MTBCESeconds: 5544, Nodes: 16384, SimNodes: 16384},
		{Name: "exascale-cielo-x20", Class: Exascale, CEPerNodeYear: 11480, GiBPerNode: 700, CEPerGiBYear: 16.4, MTBCESeconds: 3024, Nodes: 16384, SimNodes: 16384},
		{Name: "exascale-cielo-x100", Class: Exascale, CEPerNodeYear: 57400, GiBPerNode: 700, CEPerGiBYear: 82, MTBCESeconds: 554.4, Nodes: 16384, SimNodes: 16384},
		{Name: "exascale-facebook-median", Class: Exascale, CEPerNodeYear: 75600, GiBPerNode: 700, CEPerGiBYear: 108, MTBCESeconds: 432, Nodes: 16384, SimNodes: 16384},
	}
}

// ByName returns the Table II row with the given name.
func ByName(name string) (System, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return System{}, fmt.Errorf("systems: unknown system %q", name)
}

// Simulated returns the rows the paper simulates (Figs. 4 and 5).
func Simulated() []System {
	var out []System
	for _, s := range Catalog() {
		if s.SimNodes > 0 {
			out = append(out, s)
		}
	}
	return out
}

// ExascaleRows returns the hypothetical exascale systems (Fig. 5).
func ExascaleRows() []System {
	var out []System
	for _, s := range Catalog() {
		if s.Class == Exascale {
			out = append(out, s)
		}
	}
	return out
}

// LoggingMode is one of the three per-event CE handling scenarios used
// in every simulation figure.
type LoggingMode struct {
	Name string
	// PerEventNanos is the CPU detour per correctable error.
	PerEventNanos int64
}

// The paper's three logging scenarios (Figs. 3-7).
var (
	// HardwareOnly is ECC correction with all logging disabled: 150 ns.
	HardwareOnly = LoggingMode{Name: "hardware-only", PerEventNanos: 150}
	// SoftwareCMCI is OS decode+log from the corrected machine check
	// interrupt: 775 us per event.
	SoftwareCMCI = LoggingMode{Name: "software-cmci", PerEventNanos: 775 * 1000}
	// FirmwareEMCA is firmware-first decode+log via SMM: 133 ms per
	// event (the paper's headline number, from Gottscho et al.).
	FirmwareEMCA = LoggingMode{Name: "firmware-emca", PerEventNanos: 133 * 1000 * 1000}
)

// LoggingModes returns the three scenarios in presentation order.
func LoggingModes() []LoggingMode {
	return []LoggingMode{HardwareOnly, SoftwareCMCI, FirmwareEMCA}
}

// LoggingModeByName looks up a scenario by name.
func LoggingModeByName(name string) (LoggingMode, error) {
	for _, m := range LoggingModes() {
		if m.Name == name {
			return m, nil
		}
	}
	return LoggingMode{}, fmt.Errorf("systems: unknown logging mode %q", name)
}

// FaultMix is a named fault-mode mixture preset: a faultmodel
// composition without a rate, grounded in the PAPERS.md field studies.
// Scenarios attach the system's MTBCE via Spec.WithMTBCE, so the same
// composition runs at any Table II rate.
type FaultMix struct {
	Name        string
	Description string
	Spec        faultmodel.Spec
}

// FaultMixes returns the fault-mix presets in presentation order.
// Compositions follow "A Systematic Study of DDR4 DRAM Faults in the
// Field" (single-cell faults dominate, row/column faults arrive in
// correlated bursts, a minority of DIMMs carries most errors) and
// "DRAM Errors and Cosmic Rays" (the transient component scales with
// particle flux).
func FaultMixes() []FaultMix {
	fieldDDR4 := faultmodel.Spec{
		Modes: []faultmodel.Mode{
			{Kind: "cell", Weight: 0.45},
			{Kind: "cell", Weight: 0.20, Transient: true},
			{Kind: "row", Weight: 0.20, BurstLen: 8, BurstGapNanos: 2e6},
			{Kind: "column", Weight: 0.10, BurstLen: 4, BurstGapNanos: 5e6},
			{Kind: "bank", Weight: 0.05},
		},
		SkewSigma: 1.8,
	}
	highAltitude := fieldDDR4
	highAltitude.Flux = 4
	return []FaultMix{
		{
			Name:        "field-ddr4",
			Description: "DDR4 field-study mixture: cell-dominant with bursty row/column faults and moderate per-DIMM skew",
			Spec:        fieldDDR4,
		},
		{
			Name:        "high-altitude",
			Description: "field-ddr4 composition at 4x particle flux (aircraft-altitude transient rates)",
			Spec:        highAltitude,
		},
		{
			Name:        "skewed-dimms",
			Description: "heavy per-DIMM rate concentration: a few nodes carry most of the CE load",
			Spec: faultmodel.Spec{
				Modes: []faultmodel.Mode{
					{Kind: "cell", Weight: 0.75},
					{Kind: "row", Weight: 0.25, BurstLen: 8, BurstGapNanos: 2e6},
				},
				SkewSigma: 2.2,
			},
		},
		{
			Name:        "bursty-row",
			Description: "storm-prone row-fault mixture: long CE trains that trip the CMCI storm threshold",
			Spec: faultmodel.Spec{
				Modes: []faultmodel.Mode{
					{Kind: "cell", Weight: 0.30},
					{Kind: "row", Weight: 0.60, BurstLen: 64, BurstGapNanos: 1e6},
					{Kind: "bank", Weight: 0.10, Transient: true},
				},
				SkewSigma: 1.0,
			},
		},
	}
}

// FaultMixByName looks up a fault-mix preset by name.
func FaultMixByName(name string) (FaultMix, error) {
	for _, m := range FaultMixes() {
		if m.Name == name {
			return m, nil
		}
	}
	return FaultMix{}, fmt.Errorf("systems: unknown fault mix %q", name)
}

// ResolveFaultMix turns a -fault-mix command-line argument into a
// mixture spec: a preset name wins, anything else is read as a JSON
// spec file.
func ResolveFaultMix(arg string) (faultmodel.Spec, error) {
	if mix, err := FaultMixByName(arg); err == nil {
		return mix.Spec, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return faultmodel.Spec{}, fmt.Errorf("-fault-mix %q is neither a preset (%s) nor a readable spec file: %v",
			arg, strings.Join(FaultMixNames(), ", "), err)
	}
	spec, err := faultmodel.ParseSpec(data)
	if err != nil {
		return faultmodel.Spec{}, fmt.Errorf("-fault-mix %s: %w", arg, err)
	}
	return spec, nil
}

// FaultMixNames returns the preset names in presentation order, for
// flag validation messages.
func FaultMixNames() []string {
	mixes := FaultMixes()
	out := make([]string, len(mixes))
	for i, m := range mixes {
		out[i] = m.Name
	}
	return out
}
