package faultmodel

import (
	"fmt"

	"repro/internal/mca"
)

// Node-level measurement window for the storm bridge. The full Blake
// configuration (96 cores, 2 minutes) costs seconds per run; the storm
// dynamics — CMCI threshold trip, poll-mode fallback, SMI trains —
// play out identically in a small window, and figure drivers call this
// once per (burst, mode) point.
const (
	stormCores     = 4
	stormWindow    = int64(12e9) // 12 s
	stormPeriod    = int64(2e9)  // burst train every 2 s
	stormThreshold = 15          // Linux CMCI storm threshold, CMCIs/s
)

// burstiest returns the canonical mode with the longest burst train.
func burstiest(modes []compiledMode) compiledMode {
	best := modes[0]
	for _, m := range modes[1:] {
		if m.burstLen > best.burstLen {
			best = m
		}
	}
	return best
}

// StormMCAConfig maps the mixture's dominant burst train onto the
// node-level machine-check model (package mca): each injection point
// fires the train's mean length at its mean spacing, with the Linux
// CMCI storm mitigation armed in Software mode. This is how a mixture
// feeds the storm/poll path the paper's Fig. 2 measurements exercise.
func (s Spec) StormMCAConfig(seed uint64, mode mca.Mode) (mca.Config, error) {
	modes, _, err := s.compile()
	if err != nil {
		return mca.Config{}, err
	}
	b := burstiest(modes)
	cfg := mca.Config{
		Seed:           seed,
		Mode:           mode,
		Cores:          stormCores,
		Duration:       stormWindow,
		InjectPeriod:   stormPeriod,
		StormThreshold: stormThreshold,
		BurstLen:       int(b.burstLen + 0.5),
	}
	if cfg.BurstLen < 1 {
		cfg.BurstLen = 1
	}
	if b.burstGap > 0 {
		cfg.BurstSpacing = int64(b.burstGap)
	}
	return cfg, nil
}

// StormPerEventNanos runs the node-level model under the mixture's
// burst train and returns the effective per-CE handling cost as one
// core experiences it — including the CMCI storm-poll detours that
// replace per-event interrupts once the threshold trips. This is the
// number the storm-tail figure feeds into the application sweep: under
// Software logging it shrinks as bursts intensify (the storm
// mitigation absorbs events into polls), under Firmware it does not
// (every CE raises its SMI regardless).
func (s Spec) StormPerEventNanos(seed uint64, mode mca.Mode) (int64, error) {
	cfg, err := s.StormMCAConfig(seed, mode)
	if err != nil {
		return 0, err
	}
	sig, err := mca.Run(cfg)
	if err != nil {
		return 0, err
	}
	injections := 0
	for t := cfg.InjectPeriod; t < cfg.Duration; t += cfg.InjectPeriod {
		injections++
	}
	ces := int64(injections) * int64(cfg.BurstLen)
	if ces == 0 {
		return 0, fmt.Errorf("faultmodel: storm window too short for any injection")
	}
	var total int64
	for _, d := range sig.Detours {
		switch mode {
		case mca.Software:
			// A CMCI lands on one core; polls replace interrupts
			// during a storm. Both interrupt whichever core the
			// application rank shares.
			if d.Source == mca.CMCI || d.Source == mca.CMCIPoll {
				total += d.Dur
			}
		case mca.Firmware:
			// SMIs halt every core; count one core's view so the
			// cost is per-CE per-core, comparable to the software
			// path.
			if d.Core == 0 && (d.Source == mca.SMI || d.Source == mca.Decode) {
				total += d.Dur
			}
		case mca.CorrectionOnly:
			if d.Source == mca.Correction {
				total += d.Dur
			}
		default:
			return 0, fmt.Errorf("faultmodel: mca mode %v has no per-CE handling cost", mode)
		}
	}
	per := total / ces
	if per < 1 {
		per = 1
	}
	return per, nil
}
