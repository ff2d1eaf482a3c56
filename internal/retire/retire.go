// Package retire models DRAM fault modes and memory page retirement
// (offlining), the mitigation the paper's background section points to
// (Tang et al. [13]) and the mechanism that connects a machine's fault
// population to the correctable-error *rates* of Table II.
//
// Physical DRAM faults come in modes with very different spatial
// footprints — the Cielo field studies (Levy et al. [24], Siddiqua et
// al. [39]) report a stable mix of single-cell, row, column and bank
// faults. Package faultmodel owns that taxonomy, the fault population
// and its CE stream; this package is the policy. The OS can retire
// (offline) a 4 KiB page once it has logged enough CEs from it;
// retirement is effective exactly when the fault's footprint is
// concentrated on few pages:
//
//   - permanent single-cell and row faults live on one or two pages —
//     a handful of retirements silences them;
//   - column and bank faults scatter across thousands of pages — the
//     page budget runs out long before the fault is contained;
//   - transient strikes never repeat a location, so retiring their
//     pages spends the budget and silences nothing.
//
// Simulate replays one node's faultmodel CE stream with and without
// retirement, yielding the effective MTBCE(node) a deployment would
// observe — the quantity the rest of this repository consumes.
package retire

import (
	"fmt"
	"math"

	"repro/internal/faultmodel"
)

// DefaultMaxPages is the kernel's page-retirement budget: at most 64
// pages may be taken offline per node.
const DefaultMaxPages = 64

// Policy is the OS page-retirement policy.
type Policy struct {
	// Threshold is the number of logged CEs on a page before it is
	// retired. Zero disables retirement.
	Threshold int
	// MaxPages bounds the number of retired pages (the kernel keeps a
	// budget so a flaky column cannot eat the whole node). Zero means
	// DefaultMaxPages.
	MaxPages int
}

// Config describes a retirement simulation.
type Config struct {
	// Seed selects the node's CE stream (faultmodel.Spec.Generator).
	Seed uint64
	// Hours is the simulated wall-clock span.
	Hours float64
	// Spec is the node's fault population: mode composition, burst
	// trains and the aggregate CE rate (MTBCENanos must be set).
	Spec faultmodel.Spec
	// Policy is the retirement policy.
	Policy Policy
}

// maxCEs bounds the generated event count against pathological configs.
const maxCEs = 1 << 22

// maxHours keeps the span in int64 nanoseconds.
const maxHours = math.MaxInt64 / 3600e9

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !(c.Hours > 0 && c.Hours <= maxHours) {
		return fmt.Errorf("retire: hours must be in (0, %.0f], got %v", float64(maxHours), c.Hours)
	}
	if c.Policy.Threshold < 0 || c.Policy.MaxPages < 0 {
		return fmt.Errorf("retire: negative policy fields: %+v", c.Policy)
	}
	return nil
}

// Result summarizes one simulated node-lifetime.
type Result struct {
	// CEsByKind counts the generated CE events by the fault mode that
	// produced them.
	CEsByKind [faultmodel.NumKinds]int
	// CEsGenerated counts all CE events the fault population produced.
	CEsGenerated int
	// CEsLogged counts the events that reached the OS log (i.e. whose
	// page was not yet retired).
	CEsLogged int
	// CEsSuppressed = CEsGenerated - CEsLogged.
	CEsSuppressed int
	// PagesRetired is the number of pages taken offline.
	PagesRetired int
	// BytesRetired is PagesRetired * faultmodel.PageBytes.
	BytesRetired int64
	// Truncated is set when the 2^22-CE guard clipped the event stream.
	Truncated bool
}

// SuppressionPct returns the percentage of CEs silenced by retirement.
func (r Result) SuppressionPct() float64 {
	if r.CEsGenerated == 0 {
		return 0
	}
	return 100 * float64(r.CEsSuppressed) / float64(r.CEsGenerated)
}

// LoggedMTBCENanos returns the effective mean time between *logged* CEs
// over the simulated span; this is the MTBCE(node) the logging-overhead
// simulations should use. Returns a very large value when nothing was
// logged.
func (r Result) LoggedMTBCENanos(hours float64) int64 {
	if r.CEsLogged == 0 {
		return int64(hours * 3600 * 1e9 * 1000)
	}
	return int64(hours * 3600 * 1e9 / float64(r.CEsLogged))
}

// pageID identifies a physical page: banks are separate address spaces
// in faultmodel's geometry.
type pageID struct {
	bank  int
	index uint64
}

// Simulate replays the node's CE stream, in time order, against the
// retirement policy.
func Simulate(cfg Config) (*Result, error) { return simulate(cfg, maxCEs) }

// simulate is Simulate stopping after limit CEs.
func simulate(cfg Config, limit int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gen, err := cfg.Spec.Generator(cfg.Seed, 0)
	if err != nil {
		return nil, fmt.Errorf("retire: %w", err)
	}
	maxPages := cfg.Policy.MaxPages
	if maxPages == 0 {
		maxPages = DefaultMaxPages
	}

	res := &Result{}
	counts := map[pageID]int{}
	retired := map[pageID]bool{}
	span := int64(cfg.Hours * 3600e9)
	for ev := gen.Next(); ev.TimeNanos < span; ev = gen.Next() {
		if res.CEsGenerated >= limit {
			res.Truncated = true
			break
		}
		res.CEsGenerated++
		res.CEsByKind[ev.Kind]++
		index, _, _ := faultmodel.Decompose(ev.Addr)
		pg := pageID{ev.Bank, index}
		if retired[pg] {
			res.CEsSuppressed++
			continue
		}
		res.CEsLogged++
		if cfg.Policy.Threshold <= 0 {
			continue
		}
		counts[pg]++
		if counts[pg] >= cfg.Policy.Threshold && res.PagesRetired < maxPages {
			retired[pg] = true
			res.PagesRetired++
		}
	}
	res.BytesRetired = int64(res.PagesRetired) * faultmodel.PageBytes
	return res, nil
}
