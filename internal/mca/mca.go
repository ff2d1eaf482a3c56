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
	// cores, every tenth CE pays the firmware decode.
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

// The node's calibration to the paper's Blake measurements, in ns. The
// Fig. 2 goldens pin these values.
const (
	threshold         = 150              // selfish detour threshold
	tickPeriod        = int64(1e6)       // OS timer tick, CONFIG_HZ=1000
	tickCost          = 1500             // ~1.5 us timer tick handler
	schedPeriod       = 4 * int64(1e6)   // scheduler housekeeping period
	schedCost         = 4000             // ~4 us scheduler housekeeping
	dryRunCost        = 3000             // ~3 us of sysfs EINJ configuration writes
	correctionCost    = 150              // pure ECC correction latency, the paper's hardware cost
	cmciCost          = 700 * int64(1e3) // ~700 us OS decode+log in the CMCI handler (Fig. 2c)
	smiCost           = 7 * int64(1e6)   // ~7 ms SMI broadcast halt, all cores (Fig. 2d)
	decodeCost        = 500 * int64(1e6) // ~500 ms firmware decode+log, all cores (Fig. 2d)
	firmwareThreshold = 10               // firmware decodes and logs every Nth CE
	pollInterval      = int64(1e9)       // CMCI polling cadence during a storm
	pollCost          = cmciCost         // a poll decodes like a CMCI handler
)

// Config describes the measurement scenario. Zero fields take the Blake
// defaults (see Defaults).
type Config struct {
	Seed     uint64
	Mode     Mode
	Cores    int   // cores running selfish (Blake: 48 of 96)
	Duration int64 // measured window, ns

	InjectPeriod int64 // time between EINJ injections (paper: 10 s)

	// BurstLen injects this many CEs back to back (BurstSpacing apart)
	// at each injection point instead of a single error, emulating the
	// "avalanche" scenarios of Gottscho et al. Zero means 1.
	BurstLen     int
	BurstSpacing int64 // gap between CEs within a burst

	// StormThreshold enables the Linux CMCI storm mitigation in
	// Software mode: after this many CMCIs within one second the
	// kernel disables the interrupt and falls back to polling once a
	// second until the storm subsides. Zero disables storm handling
	// (every CE raises a CMCI).
	StormThreshold int
}

// Defaults fills zero fields with the Blake measurement's values.
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
	if c.BurstLen == 0 {
		c.BurstLen = 1
	}
	def(&c.BurstSpacing, int64(1e6)) // 1 ms between CEs in a burst
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

// Source names what took a core from the application.
type Source uint8

// Sources, one per kind of steal the node model produces.
const (
	Tick       Source = iota // OS timer tick
	Sched                    // scheduler housekeeping
	EINJConfig               // the injector's sysfs writes
	Correction               // in-hardware ECC correction
	CMCI                     // OS decode+log in the CMCI handler
	CMCIPoll                 // a poll standing in for CMCIs during a storm
	SMI                      // SMM entry, all cores halted
	Decode                   // firmware decode+log in SMM, all cores halted
)

var sourceNames = [...]string{"tick", "sched", "einj-config", "correction", "cmci", "cmci-poll", "smi", "decode"}

// String returns the source's label in cmd/mcasig's output.
func (s Source) String() string {
	if int(s) < len(sourceNames) {
		return sourceNames[s]
	}
	return fmt.Sprintf("source(%d)", int(s))
}

// Detour is one detected interruption of the application, or before
// detection one raw steal.
type Detour struct {
	Start  int64 // ns since measurement start
	Dur    int64 // ns
	Core   int32
	Source Source
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

// MaxDetoursBySource returns, per source, the maximum single detour
// duration — the quantity the paper reads off Fig. 2 ("the tallest bars
// ... represent the cost of decoding and logging").
func (s *Signature) MaxDetoursBySource() map[Source]int64 {
	out := map[Source]int64{}
	for _, d := range s.Detours {
		if d.Dur > out[d.Source] {
			out[d.Source] = d.Dur
		}
	}
	return out
}

// Run simulates the node and returns the detected noise signature.
func Run(cfg Config) (*Signature, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return detect(cfg, steals(cfg)), nil
}

// steals returns the raw steals of every core over the window, in the
// order the node model draws them.
func steals(cfg Config) []Detour {
	src := rng.New(cfg.Seed)
	// Preallocate: background ticks dominate the count.
	est := int(int64(cfg.Cores)*(cfg.Duration/tickPeriod+cfg.Duration/schedPeriod)) + 1024
	out := make([]Detour, 0, est)

	jitter := func(base int64, frac float64) int64 {
		span := float64(base) * frac
		return base + int64((src.Float64()*2-1)*span)
	}

	// Background OS noise on every core.
	for core := int32(0); core < int32(cfg.Cores); core++ {
		phase := int64(src.Float64() * float64(tickPeriod))
		for t := phase; t < cfg.Duration; t += tickPeriod {
			out = append(out, Detour{Start: t, Dur: jitter(tickCost, 0.3), Core: core, Source: Tick})
		}
		phase = int64(src.Float64() * float64(schedPeriod))
		for t := phase; t < cfg.Duration; t += schedPeriod {
			out = append(out, Detour{Start: t, Dur: jitter(schedCost, 0.4), Core: core, Source: Sched})
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
			out = append(out, Detour{Start: t, Dur: jitter(dryRunCost, 0.3), Core: 0, Source: EINJConfig})
			if cfg.Mode == DryRun {
				continue
			}
			trigger := t + dryRunCost
			switch cfg.Mode {
			case CorrectionOnly:
				// ECC correction stalls the accessing core only,
				// beneath the detector threshold at default settings.
				for b := 0; b < cfg.BurstLen; b++ {
					out = append(out, Detour{Start: trigger + int64(b)*cfg.BurstSpacing, Dur: correctionCost, Core: 0, Source: Correction})
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
					out = append(out, Detour{Start: at, Dur: jitter(cmciCost, 0.1), Core: core, Source: CMCI})
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
							pollStart = at + pollInterval
						}
					}
					injection++
				}
				if pollStart >= 0 {
					for at := pollStart; at < stormUntil && at < cfg.Duration; at += pollInterval {
						out = append(out, Detour{Start: at, Dur: jitter(pollCost, 0.1), Core: 0, Source: CMCIPoll})
					}
				}
				continue
			case Firmware:
				// SMI halts all cores while the processor is in SMM;
				// every CE in a burst raises its own SMI.
				for b := 0; b < cfg.BurstLen; b++ {
					at := trigger + int64(b)*cfg.BurstSpacing
					smi := jitter(smiCost, 0.05)
					for core := int32(0); core < int32(cfg.Cores); core++ {
						out = append(out, Detour{Start: at, Dur: smi, Core: core, Source: SMI})
					}
					// Every Nth CE the firmware decodes and logs, still
					// in SMM: all cores remain halted.
					if (injection+1)%firmwareThreshold == 0 {
						dec := jitter(decodeCost, 0.05)
						for core := int32(0); core < int32(cfg.Cores); core++ {
							out = append(out, Detour{Start: at + smi, Dur: dec, Core: core, Source: Decode})
						}
					}
					injection++
				}
				continue
			}
			injection++
		}
	}

	return out
}

// detect runs the selfish-style detector: per core, coalesce overlapping
// steals and report every resulting detour whose duration is at least
// the threshold. It coalesces in place: each detour consumes at least
// one steal, so every write lands at or before the read position, and
// the detours are a prefix of the steals' array. Both sorts are unstable
// and their tie order reaches the output (equal-length steals keep the
// first one's source), so the figure goldens pin it.
func detect(cfg Config, steals []Detour) *Signature {
	slices.SortFunc(steals, func(a, b Detour) int {
		if c := cmp.Compare(a.Core, b.Core); c != 0 {
			return c
		}
		return cmp.Compare(a.Start, b.Start)
	})
	n := 0
	for i := 0; i < len(steals); {
		cur := steals[i]
		end := cur.Start + cur.Dur
		src := cur.Source
		maxDur := cur.Dur
		j := i + 1
		for ; j < len(steals) && steals[j].Core == cur.Core && steals[j].Start <= end; j++ {
			end = max(end, steals[j].Start+steals[j].Dur)
			if steals[j].Dur > maxDur {
				maxDur = steals[j].Dur
				src = steals[j].Source
			}
		}
		if dur := end - cur.Start; dur >= threshold {
			steals[n] = Detour{Start: cur.Start, Dur: dur, Core: cur.Core, Source: src}
			n++
		}
		i = j
	}
	detours := steals[:n:n]
	// Present in time order across cores, as selfish traces are plotted.
	slices.SortFunc(detours, func(a, b Detour) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Core, b.Core)
	})
	return &Signature{Mode: cfg.Mode, Cores: cfg.Cores, Window: cfg.Duration, Detours: detours}
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
		case Correction, CMCI, SMI, Decode:
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
			case SMI, Decode:
				// Adjacent SMI+decode steals coalesce into a single
				// Decode detour; each such detour still corresponds to
				// exactly one CE.
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
