// Package mca models a single node's machine-check handling to reproduce
// the paper's node-level measurements (Fig. 2).
//
// The paper measured, on "Blake" (4-socket Skylake, 96 cores, RHEL 7.4),
// the OS-noise signature of correctable-error injection via ACPI/APEI
// EINJ while the `selfish` microbenchmark recorded CPU detours (periods
// when the CPU was taken from the application, detected by a gap in
// back-to-back timestamp-counter reads exceeding a 150 ns threshold).
//
// We cannot inject machine checks from a Go library, so this package
// substitutes a faithful node model: per-core timelines of CPU "steal"
// intervals produced by
//
//   - background OS activity (timer ticks, scheduler housekeeping),
//   - the EINJ injection utility's sysfs writes (dry-run cost),
//   - CMCI handling: a corrected-machine-check interrupt delivered to
//     one core, whose handler decodes and logs the error in the OS
//     (~700 us measured in the paper),
//   - EMCA/firmware-first handling: a System Management Interrupt that
//     halts *all* cores (~7 ms), plus the firmware decode+log of every
//     Nth error (~500 ms, threshold 10 in the paper),
//
// and a selfish-style detector that coalesces overlapping steals and
// reports every detour longer than the threshold. The output is the same
// (time, duration) series the paper plots.
package mca

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/rng"
)

// Mode selects the logging configuration being measured.
type Mode int

// Modes, mirroring Fig. 2 plus the "all logging off" case the paper
// describes in prose.
const (
	// Native: background OS noise only, no injections.
	Native Mode = iota
	// DryRun: EINJ configured through sysfs at each injection time, but
	// the error is never triggered.
	DryRun
	// CorrectionOnly: errors injected, all logging disabled; only the
	// in-hardware ECC correction latency remains (~150 ns, below the
	// selfish threshold, hence invisible — as the paper notes).
	CorrectionOnly
	// Software: OS decodes and logs each CE from a CMCI handler.
	Software
	// Firmware: EMCA firmware-first; each CE raises an SMI on all
	// cores, every FirmwareThreshold-th CE pays the firmware decode.
	Firmware
)

// String returns the mode name used by cmd/mcasig.
func (m Mode) String() string {
	switch m {
	case Native:
		return "native"
	case DryRun:
		return "dryrun"
	case CorrectionOnly:
		return "correction-only"
	case Software:
		return "software"
	case Firmware:
		return "firmware"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode converts a mode name to a Mode.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{Native, DryRun, CorrectionOnly, Software, Firmware} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("mca: unknown mode %q", s)
}

// Config describes the measurement scenario. Zero fields take the Blake
// defaults (see Defaults).
type Config struct {
	Seed     uint64
	Mode     Mode
	Cores    int   // cores running selfish (Blake: 48 of 96)
	Duration int64 // measured window, ns

	InjectPeriod      int64 // time between EINJ injections (paper: 10 s)
	FirmwareThreshold int   // firmware logs every Nth CE (paper: 10)

	// BurstLen injects this many CEs back to back (BurstSpacing apart)
	// at each injection point instead of a single error, emulating the
	// "avalanche" scenarios of Gottscho et al. Zero means 1.
	BurstLen     int
	BurstSpacing int64 // gap between CEs within a burst

	// StormThreshold enables the Linux CMCI storm mitigation in
	// Software mode: after this many CMCIs within one second the
	// kernel disables the interrupt and falls back to polling every
	// PollInterval (PollCost per poll) until the storm subsides.
	// Zero disables storm handling (every CE raises a CMCI).
	StormThreshold int
	PollInterval   int64 // polling cadence during a storm
	PollCost       int64 // handler cost per poll

	Threshold int64 // selfish detour threshold (paper: 150 ns)
	// SampleLoopNs models the selfish sampling loop explicitly: the
	// benchmark reads the TSC every SampleLoopNs; a steal is observed
	// as the gap between consecutive reads minus the loop cost, so
	// observed durations carry up to one loop iteration of
	// quantization and detours are timestamped on the sample grid.
	// Zero uses the idealized detector (exact steal intervals).
	SampleLoopNs int64

	// Component costs; zero means the Blake-calibrated default.
	TickPeriod     int64 // OS timer tick period
	TickCost       int64 // timer tick handler cost
	SchedPeriod    int64 // scheduler housekeeping period
	SchedCost      int64 // scheduler housekeeping cost
	DryRunCost     int64 // sysfs configuration writes
	CorrectionCost int64 // pure ECC correction latency
	CMCICost       int64 // OS decode+log in the CMCI handler
	SMICost        int64 // SMI broadcast halt, all cores
	DecodeCost     int64 // firmware decode+log, all cores
}

// Defaults fills zero fields with values calibrated to the paper's Blake
// measurements.
func (c Config) Defaults() Config {
	def := func(v *int64, d int64) {
		if *v == 0 {
			*v = d
		}
	}
	if c.Cores == 0 {
		c.Cores = 48
	}
	def(&c.Duration, 120*int64(1e9)) // 2 minutes
	def(&c.InjectPeriod, 10*int64(1e9))
	if c.FirmwareThreshold == 0 {
		c.FirmwareThreshold = 10
	}
	def(&c.Threshold, 150)
	def(&c.TickPeriod, int64(1e6)) // CONFIG_HZ=1000
	def(&c.TickCost, 1500)         // ~1.5 us
	def(&c.SchedPeriod, 4*int64(1e6))
	def(&c.SchedCost, 4000)            // ~4 us
	def(&c.DryRunCost, 3000)           // ~3 us of sysfs writes
	def(&c.CorrectionCost, 150)        // 150 ns, the paper's hardware cost
	def(&c.CMCICost, 700*int64(1e3))   // ~700 us (Fig. 2c)
	def(&c.SMICost, 7*int64(1e6))      // ~7 ms (Fig. 2d)
	def(&c.DecodeCost, 500*int64(1e6)) // ~500 ms (Fig. 2d)
	if c.BurstLen == 0 {
		c.BurstLen = 1
	}
	def(&c.BurstSpacing, int64(1e6)) // 1 ms between CEs in a burst
	def(&c.PollInterval, int64(1e9)) // poll once per second in a storm
	def(&c.PollCost, c.CMCICost)     // decoding work is the same
	return c
}

// Validate reports configuration errors after defaulting.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("mca: cores must be positive")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("mca: duration must be positive")
	}
	if c.InjectPeriod <= 0 {
		return fmt.Errorf("mca: injection period must be positive")
	}
	if c.Mode < Native || c.Mode > Firmware {
		return fmt.Errorf("mca: unknown mode %d", c.Mode)
	}
	if c.BurstLen < 0 || c.StormThreshold < 0 {
		return fmt.Errorf("mca: negative burst/storm parameter: %+v", c)
	}
	return nil
}

// Detour is one detected interruption of the application.
type Detour struct {
	Start  int64 // ns since measurement start
	Dur    int64 // ns
	Core   int32
	Source string // "tick", "sched", "einj-config", "correction", "cmci", "smi", "decode"
}

// Signature is the result of one measurement run.
type Signature struct {
	Mode    Mode
	Cores   int
	Window  int64 // measured duration, ns
	Detours []Detour
}

// Stats summarizes a signature.
type Stats struct {
	Count     int
	MaxDur    int64
	MeanDur   float64
	TotalDur  int64
	NoisePct  float64 // total steal across cores / (window * cores) * 100
	ByCoreMax int64   // largest single-core total steal
}

// ComputeStats summarizes the detours.
func (s *Signature) ComputeStats() Stats {
	var st Stats
	st.Count = len(s.Detours)
	perCore := map[int32]int64{}
	for _, d := range s.Detours {
		if d.Dur > st.MaxDur {
			st.MaxDur = d.Dur
		}
		st.TotalDur += d.Dur
		perCore[d.Core] += d.Dur
	}
	if st.Count > 0 {
		st.MeanDur = float64(st.TotalDur) / float64(st.Count)
	}
	for _, v := range perCore {
		if v > st.ByCoreMax {
			st.ByCoreMax = v
		}
	}
	if s.Window > 0 && s.Cores > 0 {
		st.NoisePct = 100 * float64(st.TotalDur) / (float64(s.Window) * float64(s.Cores))
	}
	return st
}

// CoreDetours returns the detours observed on one core, in time order.
func (s *Signature) CoreDetours(core int32) []Detour {
	var out []Detour
	for _, d := range s.Detours {
		if d.Core == core {
			out = append(out, d)
		}
	}
	return out
}

// MaxDetoursBySource returns, per source label, the maximum single
// detour duration — the quantity the paper reads off Fig. 2 ("the
// tallest bars ... represent the cost of decoding and logging").
func (s *Signature) MaxDetoursBySource() map[string]int64 {
	out := map[string]int64{}
	for _, d := range s.Detours {
		if d.Dur > out[d.Source] {
			out[d.Source] = d.Dur
		}
	}
	return out
}

// steal is an internal raw interruption before detection.
type steal struct {
	start, dur int64
	core       int32
	source     string
}

// Run simulates the node and returns the detected noise signature.
func Run(cfg Config) (*Signature, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	// Preallocate: background ticks dominate the count.
	est := int(int64(cfg.Cores)*(cfg.Duration/cfg.TickPeriod+cfg.Duration/cfg.SchedPeriod)) + 1024
	steals := make([]steal, 0, est)

	jitter := func(base int64, frac float64) int64 {
		span := float64(base) * frac
		return base + int64((src.Float64()*2-1)*span)
	}

	// Background OS noise on every core.
	for core := int32(0); core < int32(cfg.Cores); core++ {
		phase := int64(src.Float64() * float64(cfg.TickPeriod))
		for t := phase; t < cfg.Duration; t += cfg.TickPeriod {
			steals = append(steals, steal{start: t, dur: jitter(cfg.TickCost, 0.3), core: core, source: "tick"})
		}
		phase = int64(src.Float64() * float64(cfg.SchedPeriod))
		for t := phase; t < cfg.Duration; t += cfg.SchedPeriod {
			steals = append(steals, steal{start: t, dur: jitter(cfg.SchedCost, 0.4), core: core, source: "sched"})
		}
	}

	// Injection-driven activity.
	if cfg.Mode != Native {
		injection := 0
		// CMCI storm state (Software mode with StormThreshold > 0).
		var cmciTimes []int64 // recent CMCI deliveries
		stormUntil := int64(-1)
		for t := cfg.InjectPeriod; t < cfg.Duration; t += cfg.InjectPeriod {
			// The injector utility runs on core 0 and configures EINJ
			// through sysfs in every non-native mode.
			steals = append(steals, steal{start: t, dur: jitter(cfg.DryRunCost, 0.3), core: 0, source: "einj-config"})
			if cfg.Mode == DryRun {
				continue
			}
			trigger := t + cfg.DryRunCost
			switch cfg.Mode {
			case CorrectionOnly:
				// ECC correction stalls the accessing core only,
				// beneath the detector threshold at default settings.
				for b := 0; b < cfg.BurstLen; b++ {
					steals = append(steals, steal{start: trigger + int64(b)*cfg.BurstSpacing, dur: cfg.CorrectionCost, core: 0, source: "correction"})
				}
			case Software:
				// CMCI delivered to one core; the handler decodes and
				// logs there. Under a storm the kernel masks CMCI and
				// polls instead.
				pollStart := int64(-1)
				for b := 0; b < cfg.BurstLen; b++ {
					at := trigger + int64(b)*cfg.BurstSpacing
					if cfg.StormThreshold > 0 && at < stormUntil {
						// Storm active: the error is picked up by the
						// next poll, no per-event interrupt.
						continue
					}
					core := int32(injection % cfg.Cores)
					steals = append(steals, steal{start: at, dur: jitter(cfg.CMCICost, 0.1), core: core, source: "cmci"})
					if cfg.StormThreshold > 0 {
						cmciTimes = append(cmciTimes, at)
						recent := 0
						for _, ct := range cmciTimes {
							if at-ct <= int64(1e9) {
								recent++
							}
						}
						if recent >= cfg.StormThreshold {
							// Mask CMCI until the burst is over plus a
							// quiet second, and poll through the storm.
							stormUntil = trigger + int64(cfg.BurstLen)*cfg.BurstSpacing + int64(1e9)
							pollStart = at + cfg.PollInterval
						}
					}
					injection++
				}
				if pollStart >= 0 {
					for at := pollStart; at < stormUntil && at < cfg.Duration; at += cfg.PollInterval {
						steals = append(steals, steal{start: at, dur: jitter(cfg.PollCost, 0.1), core: 0, source: "cmci-poll"})
					}
				}
				continue
			case Firmware:
				// SMI halts all cores while the processor is in SMM;
				// every CE in a burst raises its own SMI.
				for b := 0; b < cfg.BurstLen; b++ {
					at := trigger + int64(b)*cfg.BurstSpacing
					smi := jitter(cfg.SMICost, 0.05)
					for core := int32(0); core < int32(cfg.Cores); core++ {
						steals = append(steals, steal{start: at, dur: smi, core: core, source: "smi"})
					}
					// Every Nth CE the firmware decodes and logs, still
					// in SMM: all cores remain halted.
					if (injection+1)%cfg.FirmwareThreshold == 0 {
						dec := jitter(cfg.DecodeCost, 0.05)
						for core := int32(0); core < int32(cfg.Cores); core++ {
							steals = append(steals, steal{start: at + smi, dur: dec, core: core, source: "decode"})
						}
					}
					injection++
				}
				continue
			}
			injection++
		}
	}

	return detect(cfg, steals), nil
}

// detect runs the selfish-style detector: per core, coalesce overlapping
// steals and report every resulting detour whose duration is at least
// the threshold. Both sorts are unstable and their tie order reaches the
// output (equal-length steals keep the first one's source; sampled
// starts collide on the grid), so the figure goldens pin it.
func detect(cfg Config, steals []steal) *Signature {
	slices.SortFunc(steals, func(a, b steal) int {
		if c := cmp.Compare(a.core, b.core); c != 0 {
			return c
		}
		return cmp.Compare(a.start, b.start)
	})
	sig := &Signature{Mode: cfg.Mode, Cores: cfg.Cores, Window: cfg.Duration}
	i := 0
	for i < len(steals) {
		cur := steals[i]
		end := cur.start + cur.dur
		src := cur.source
		maxDur := cur.dur
		j := i + 1
		for j < len(steals) && steals[j].core == cur.core && steals[j].start <= end {
			if steals[j].start+steals[j].dur > end {
				end = steals[j].start + steals[j].dur
			}
			if steals[j].dur > maxDur {
				maxDur = steals[j].dur
				src = steals[j].source
			}
			j++
		}
		if dur := end - cur.start; dur >= cfg.Threshold {
			start := cur.start
			if cfg.SampleLoopNs > 0 {
				// Sampled detection: the gap is measured between the
				// last read before the steal and the first read after
				// it, inflating the duration by one loop iteration and
				// snapping the start to the sample grid.
				start -= start % cfg.SampleLoopNs
				dur += cfg.SampleLoopNs
			}
			sig.Detours = append(sig.Detours, Detour{Start: start, Dur: dur, Core: cur.core, Source: src})
		}
		i = j
	}
	// Present in time order across cores, as selfish traces are plotted.
	slices.SortFunc(sig.Detours, func(a, b Detour) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Core, b.Core)
	})
	return sig
}

// PerEventCost estimates the per-CE handling cost implied by a
// signature: the mean duration of injection-caused detours (sources
// other than background noise), the number the paper feeds into its
// large-scale simulations (150 ns hardware, ~775 us software, ~133 ms
// firmware amortized).
func (s *Signature) PerEventCost() (mean float64, events int) {
	var total int64
	for _, d := range s.Detours {
		switch d.Source {
		case "correction", "cmci", "smi", "decode":
			total += d.Dur
			events++
		}
	}
	if s.Mode == Firmware {
		// Firmware cost is amortized per CE: SMI every event plus
		// decode every Nth; divide total stolen time on one core by the
		// CE count. Count CEs as the number of SMI detours on core 0.
		var ces int
		var coreTotal int64
		for _, d := range s.Detours {
			if d.Core != 0 {
				continue
			}
			switch d.Source {
			case "smi", "decode":
				// Adjacent SMI+decode steals coalesce into a single
				// detour labelled "decode"; each such detour still
				// corresponds to exactly one CE.
				coreTotal += d.Dur
				ces++
			}
		}
		if ces == 0 {
			return 0, 0
		}
		return float64(coreTotal) / float64(ces), ces
	}
	if events == 0 {
		return 0, 0
	}
	return float64(total) / float64(events), events
}
