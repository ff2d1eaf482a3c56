package mca

import (
	"testing"
	"testing/quick"
)

const (
	us = int64(1000)
	ms = int64(1000 * 1000)
	s  = int64(1000 * 1000 * 1000)
)

func run(t *testing.T, cfg Config) *Signature {
	t.Helper()
	sig, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return sig
}

func TestModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{Native, DryRun, CorrectionOnly, Software, Firmware} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode parsed")
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Defaults().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	if err := (Config{Cores: -1}).Validate(); err == nil {
		t.Fatal("negative cores accepted")
	}
	if _, err := Run(Config{Mode: Mode(99)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestDeterministic(t *testing.T) {
	cfg := Config{Seed: 5, Mode: Firmware, Duration: 60 * s, Cores: 8}
	a := run(t, cfg)
	b := run(t, cfg)
	if len(a.Detours) != len(b.Detours) {
		t.Fatalf("detour counts differ: %d vs %d", len(a.Detours), len(b.Detours))
	}
	for i := range a.Detours {
		if a.Detours[i] != b.Detours[i] {
			t.Fatalf("detour %d differs", i)
		}
	}
}

func TestNativeSignatureIsSmall(t *testing.T) {
	sig := run(t, Config{Seed: 1, Mode: Native, Cores: 8})
	st := sig.ComputeStats()
	if st.Count == 0 {
		t.Fatal("no background noise at all")
	}
	// Background noise: ticks of a few microseconds; nothing near the
	// CMCI cost.
	if st.MaxDur >= 100*us {
		t.Fatalf("native noise has a %dns detour, implausibly large", st.MaxDur)
	}
	// Paper: native noise is a fraction of a percent of CPU time.
	if st.NoisePct > 1.0 {
		t.Fatalf("native noise %.3f%%, want < 1%%", st.NoisePct)
	}
}

func TestDryRunMatchesNative(t *testing.T) {
	// Fig. 2a vs 2b: configuring injection adds no significant noise.
	native := run(t, Config{Seed: 2, Mode: Native, Cores: 8}).ComputeStats()
	dry := run(t, Config{Seed: 2, Mode: DryRun, Cores: 8}).ComputeStats()
	if dry.MaxDur > 10*native.MaxDur {
		t.Fatalf("dry-run max detour %d far above native %d", dry.MaxDur, native.MaxDur)
	}
	if dry.NoisePct > 2*native.NoisePct+0.01 {
		t.Fatalf("dry-run noise %.4f%% vs native %.4f%%", dry.NoisePct, native.NoisePct)
	}
}

func TestCorrectionOnlyInvisible(t *testing.T) {
	// The 150 ns correction latency is at the detection threshold; the
	// signature must look like native + einj-config only.
	sig := run(t, Config{Seed: 3, Mode: CorrectionOnly, Cores: 8})
	for _, d := range sig.Detours {
		if d.Source == Correction && d.Dur > 1*us {
			t.Fatalf("correction-only produced a %dns detour", d.Dur)
		}
	}
	st := sig.ComputeStats()
	if st.MaxDur >= 100*us {
		t.Fatalf("correction-only max detour %d, want background scale", st.MaxDur)
	}
}

func TestSoftwareSignature(t *testing.T) {
	// Fig. 2c: tallest bars ~700 us at the injection period.
	cfg := Config{Seed: 4, Mode: Software, Duration: 120 * s, Cores: 8}
	sig := run(t, cfg)
	maxBy := sig.MaxDetoursBySource()
	cmci := maxBy[CMCI]
	if cmci < 500*us || cmci > 900*us {
		t.Fatalf("CMCI detour %dns, want ~700us", cmci)
	}
	// One CMCI detour per injection: 11 injections in 120s at 10s.
	count := 0
	for _, d := range sig.Detours {
		if d.Source == CMCI {
			count++
		}
	}
	if count != 11 {
		t.Fatalf("CMCI detours = %d, want 11", count)
	}
}

func TestFirmwareSignature(t *testing.T) {
	// Fig. 2d: ~7 ms SMI bars every injection, ~500 ms decode bars
	// every 10th injection (i.e. every 100 s).
	cfg := Config{Seed: 5, Mode: Firmware, Duration: 210 * s, Cores: 8}
	sig := run(t, cfg)
	maxBy := sig.MaxDetoursBySource()
	if smi := maxBy[SMI]; smi < 5*ms || smi > 9*ms {
		t.Fatalf("SMI detour %dns, want ~7ms", smi)
	}
	if dec := maxBy[Decode]; dec < 400*ms || dec > 600*ms {
		t.Fatalf("decode detour %dns, want ~500ms", dec)
	}
	// 20 injections in 210 s; decodes at injection 10 and 20.
	decodes := 0
	for _, d := range sig.Detours {
		if d.Source == Decode && d.Core == 0 {
			decodes++
		}
	}
	if decodes != 2 {
		t.Fatalf("decode detours on core 0 = %d, want 2", decodes)
	}
}

func TestSMIHaltsAllCores(t *testing.T) {
	cfg := Config{Seed: 6, Mode: Firmware, Cores: 8, Duration: 15 * s}
	sig := run(t, cfg)
	// The single injection at t=10s must produce an SMI detour on all 8
	// cores.
	cores := map[int32]bool{}
	for _, d := range sig.Detours {
		if d.Source == SMI {
			cores[d.Core] = true
		}
	}
	if len(cores) != 8 {
		t.Fatalf("SMI observed on %d cores, want all 8", len(cores))
	}
}

func TestCMCIHitsOneCore(t *testing.T) {
	cfg := Config{Seed: 7, Mode: Software, Cores: 8, Duration: 15 * s}
	sig := run(t, cfg)
	cores := map[int32]bool{}
	for _, d := range sig.Detours {
		if d.Source == CMCI {
			cores[d.Core] = true
		}
	}
	if len(cores) != 1 {
		t.Fatalf("CMCI observed on %d cores for one injection, want 1", len(cores))
	}
}

func TestPerEventCostSoftware(t *testing.T) {
	sig := run(t, Config{Seed: 8, Mode: Software, Duration: 120 * s, InjectPeriod: 2 * s, Cores: 8})
	mean, events := sig.PerEventCost()
	if events == 0 {
		t.Fatal("no events")
	}
	if mean < 500*float64(us) || mean > 900*float64(us) {
		t.Fatalf("software per-event cost %.0fns, want ~700us", mean)
	}
}

func TestPerEventCostFirmwareAmortized(t *testing.T) {
	// 7ms per CE plus 500ms every 10th: amortized ~57ms per CE — the
	// same order as the 133ms/event the paper takes from Gottscho et
	// al.; both are "tens to low hundreds of ms".
	sig := run(t, Config{Seed: 9, Mode: Firmware, Duration: 200 * s, InjectPeriod: 2 * s, Cores: 8})
	mean, events := sig.PerEventCost()
	if events < 90 {
		t.Fatalf("events = %d, want ~99", events)
	}
	if mean < 30*float64(ms) || mean > 130*float64(ms) {
		t.Fatalf("firmware amortized cost %.1fms, want tens of ms", mean/float64(ms))
	}
}

func TestCoreDetoursFilter(t *testing.T) {
	sig := run(t, Config{Seed: 10, Mode: Native, Cores: 4, Duration: 1 * s})
	for core := int32(0); core < 4; core++ {
		for _, d := range sig.CoreDetours(core) {
			if d.Core != core {
				t.Fatalf("CoreDetours(%d) returned core %d", core, d.Core)
			}
		}
	}
}

func TestDetoursSortedAndAboveThreshold(t *testing.T) {
	cfg := Config{Seed: 11, Mode: Firmware, Duration: 60 * s, Cores: 8}
	sig := run(t, cfg)
	last := int64(-1)
	for _, d := range sig.Detours {
		if d.Start < last {
			t.Fatal("detours not in time order")
		}
		last = d.Start
		if d.Dur < 150 {
			t.Fatalf("detour below threshold reported: %dns", d.Dur)
		}
		if d.Start < 0 || d.Start > cfg.Duration {
			t.Fatalf("detour outside window: %d", d.Start)
		}
	}
}

// Property: the detector never reports overlapping detours on one core.
func TestQuickNoOverlappingDetours(t *testing.T) {
	f := func(seed uint64, modeSel uint8) bool {
		mode := []Mode{Native, DryRun, CorrectionOnly, Software, Firmware}[modeSel%5]
		sig, err := Run(Config{Seed: seed, Mode: mode, Cores: 4, Duration: 30 * s})
		if err != nil {
			return false
		}
		perCore := map[int32]int64{}
		ends := map[int32]int64{}
		for _, d := range sig.Detours {
			if d.Start < ends[d.Core] {
				return false
			}
			ends[d.Core] = d.Start + d.Dur
			perCore[d.Core] += d.Dur
		}
		// Steal on any core cannot exceed the window by more than one
		// trailing event.
		for _, v := range perCore {
			if v > sig.Window+600*ms {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRunFirmware(b *testing.B) {
	cfg := Config{Seed: 1, Mode: Firmware, Duration: 120 * s}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
