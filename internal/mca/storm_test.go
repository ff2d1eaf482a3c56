package mca

import "testing"

// countSource tallies detours by source label.
func countSource(sig *Signature, source Source) int {
	n := 0
	for _, d := range sig.Detours {
		if d.Source == source {
			n++
		}
	}
	return n
}

func TestBurstInjection(t *testing.T) {
	// One injection point (15s window, 10s period), burst of 5 CEs.
	cfg := Config{
		Seed: 1, Mode: Software, Cores: 8, Duration: 15 * s,
		BurstLen: 5, BurstSpacing: 10 * ms,
	}
	sig := run(t, cfg)
	if got := countSource(sig, CMCI); got != 5 {
		t.Fatalf("burst of 5 produced %d CMCI detours", got)
	}
}

func TestBurstValidation(t *testing.T) {
	if _, err := Run(Config{Mode: Software, BurstLen: -1}); err == nil {
		t.Fatal("negative burst length accepted")
	}
	if _, err := Run(Config{Mode: Software, StormThreshold: -1}); err == nil {
		t.Fatal("negative storm threshold accepted")
	}
}

func TestStormThrottlesCMCI(t *testing.T) {
	// A 100-error avalanche with storm threshold 5: at most 5 CMCIs,
	// then polling takes over.
	base := Config{
		Seed: 2, Mode: Software, Cores: 8, Duration: 15 * s,
		BurstLen: 100, BurstSpacing: 5 * ms,
	}
	unthrottled := run(t, base)
	throttled := base
	throttled.StormThreshold = 5
	sig := run(t, throttled)

	cmci := countSource(sig, CMCI)
	if cmci > 5 {
		t.Fatalf("storm allowed %d CMCIs, threshold 5", cmci)
	}
	if countSource(sig, CMCIPoll) == 0 {
		t.Fatal("no poll detours during the storm")
	}
	// The whole point: throttling caps the stolen time.
	if sig.ComputeStats().TotalDur >= unthrottled.ComputeStats().TotalDur {
		t.Fatalf("throttling did not reduce steal: %d vs %d",
			sig.ComputeStats().TotalDur, unthrottled.ComputeStats().TotalDur)
	}
}

func TestStormRecoversBetweenInjections(t *testing.T) {
	// Two injection points 10s apart, each a 20-error storm: CMCI must
	// be re-enabled after the quiet period, so both bursts start with
	// interrupts.
	cfg := Config{
		Seed: 3, Mode: Software, Cores: 8, Duration: 25 * s,
		BurstLen: 20, BurstSpacing: 10 * ms, StormThreshold: 4,
	}
	sig := run(t, cfg)
	// CMCIs from both bursts: up to 4 each.
	first, second := 0, 0
	for _, d := range sig.Detours {
		if d.Source != CMCI {
			continue
		}
		if d.Start < 15*s {
			first++
		} else {
			second++
		}
	}
	if first == 0 || second == 0 {
		t.Fatalf("storm state leaked across quiet periods: first=%d second=%d", first, second)
	}
	if first > 4 || second > 4 {
		t.Fatalf("threshold not enforced per burst: first=%d second=%d", first, second)
	}
}

func TestNoStormBelowThreshold(t *testing.T) {
	// Burst of 3 with threshold 10: storm never triggers, no polls.
	cfg := Config{
		Seed: 4, Mode: Software, Cores: 8, Duration: 15 * s,
		BurstLen: 3, BurstSpacing: 50 * ms, StormThreshold: 10,
	}
	sig := run(t, cfg)
	if countSource(sig, CMCI) != 3 {
		t.Fatalf("cmci count %d, want 3", countSource(sig, CMCI))
	}
	if countSource(sig, CMCIPoll) != 0 {
		t.Fatal("polls without a storm")
	}
}

func TestBurstFirmwareUnaffectedByStormConfig(t *testing.T) {
	// Storm handling is CMCI-specific; firmware bursts still SMI every
	// event.
	cfg := Config{
		Seed: 5, Mode: Firmware, Cores: 4, Duration: 15 * s,
		BurstLen: 5, BurstSpacing: 50 * ms, StormThreshold: 2,
	}
	sig := run(t, cfg)
	// SMIs within a burst coalesce only if they overlap (7ms each at
	// 50ms spacing: no overlap): 5 SMIs on each core, one of them
	// absorbed into the decode detour when the threshold fires.
	smi := 0
	for _, d := range sig.CoreDetours(0) {
		if d.Source == SMI || d.Source == Decode {
			smi++
		}
	}
	if smi != 5 {
		t.Fatalf("firmware burst produced %d SMI/decode detours on core 0, want 5", smi)
	}
}
