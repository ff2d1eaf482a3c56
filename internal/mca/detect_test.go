package mca

import (
	"cmp"
	"slices"
	"testing"
	"unsafe"
)

// referenceDetect is the detector as it was before detect coalesced in
// place: the detours go to a second array. detect is held to it.
func referenceDetect(cfg Config, steals []Detour) *Signature {
	slices.SortFunc(steals, func(a, b Detour) int {
		if c := cmp.Compare(a.Core, b.Core); c != 0 {
			return c
		}
		return cmp.Compare(a.Start, b.Start)
	})
	sig := &Signature{Mode: cfg.Mode, Cores: cfg.Cores, Window: cfg.Duration}
	i := 0
	for i < len(steals) {
		cur := steals[i]
		end := cur.Start + cur.Dur
		src := cur.Source
		maxDur := cur.Dur
		j := i + 1
		for j < len(steals) && steals[j].Core == cur.Core && steals[j].Start <= end {
			if steals[j].Start+steals[j].Dur > end {
				end = steals[j].Start + steals[j].Dur
			}
			if steals[j].Dur > maxDur {
				maxDur = steals[j].Dur
				src = steals[j].Source
			}
			j++
		}
		if dur := end - cur.Start; dur >= threshold {
			sig.Detours = append(sig.Detours, Detour{Start: cur.Start, Dur: dur, Core: cur.Core, Source: src})
		}
		i = j
	}
	slices.SortFunc(sig.Detours, func(a, b Detour) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Core, b.Core)
	})
	return sig
}

// requireDetectMatchesReference runs detect and referenceDetect on
// copies of steals and requires the same detours, tie order included.
func requireDetectMatchesReference(t *testing.T, cfg Config, steals []Detour) {
	t.Helper()
	want := referenceDetect(cfg, slices.Clone(steals))
	got := detect(cfg, slices.Clone(steals))
	if got.Mode != want.Mode || got.Cores != want.Cores || got.Window != want.Window {
		t.Fatalf("signature header %v/%d/%d, reference %v/%d/%d", got.Mode, got.Cores, got.Window, want.Mode, want.Cores, want.Window)
	}
	if !slices.Equal(got.Detours, want.Detours) {
		for i := range min(len(got.Detours), len(want.Detours)) {
			if got.Detours[i] != want.Detours[i] {
				t.Fatalf("detour %d is %+v, reference %+v", i, got.Detours[i], want.Detours[i])
			}
		}
		t.Fatalf("%d detours, reference %d", len(got.Detours), len(want.Detours))
	}
}

// fuzzDurs are the steal durations a fuzz byte below 128 selects:
// sub-threshold, at the threshold, just above it and the background
// costs, so equal durations (and the tie on the longest source) recur.
var fuzzDurs = []int64{0, 100, threshold - 1, threshold, threshold + 1, tickCost, schedCost}

// decodeSteals turns fuzz bytes into steals, four bytes each, on three
// cores and a 50 ns start grid, so equal starts and overlapping chains
// are common.
func decodeSteals(data []byte) []Detour {
	var out []Detour
	for ; len(data) >= 4; data = data[4:] {
		dur := int64(data[2]) * 40
		if data[2] < 128 {
			dur = fuzzDurs[int(data[2])%len(fuzzDurs)]
		}
		out = append(out, Detour{
			Start:  int64(data[1]) * 50,
			Dur:    dur,
			Core:   int32(data[0] % 3),
			Source: Source(data[3] % uint8(len(sourceNames))),
		})
	}
	return out
}

// FuzzDetectMatchesReference holds the in-place detector to the
// two-array reference on random steal sets.
func FuzzDetectMatchesReference(f *testing.F) {
	f.Add([]byte{})
	// Equal starts and equal durations with different sources.
	f.Add([]byte{0, 10, 5, 0, 0, 10, 5, 6, 0, 10, 5, 4, 1, 10, 5, 2})
	// A chain: each steal starts before the previous one ends.
	f.Add([]byte{0, 0, 200, 0, 0, 3, 200, 1, 0, 6, 250, 4, 0, 9, 130, 7, 0, 40, 5, 2})
	// Sub-threshold steals alone and inside a chain.
	f.Add([]byte{2, 1, 1, 3, 2, 50, 2, 3, 2, 51, 3, 3, 2, 52, 4, 0, 1, 52, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		requireDetectMatchesReference(t, Config{Mode: Firmware, Cores: 3, Duration: 20000}, decodeSteals(data))
	})
}

// TestDetectMatchesReferenceOnRuns holds detect to the reference on the
// steals the node model draws in every mode, storms included.
func TestDetectMatchesReferenceOnRuns(t *testing.T) {
	cfgs := []Config{
		{Seed: 12, Mode: Software, Cores: 4, Duration: 25 * s, BurstLen: 20, BurstSpacing: 10 * ms, StormThreshold: 4},
		{Seed: 13, Mode: Firmware, Cores: 4, Duration: 25 * s, BurstLen: 5, BurstSpacing: 2 * ms},
	}
	for _, m := range []Mode{Native, DryRun, CorrectionOnly, Software, Firmware} {
		cfgs = append(cfgs, Config{Seed: 11, Mode: m, Cores: 4, Duration: 30 * s})
	}
	for _, cfg := range cfgs {
		cfg = cfg.Defaults()
		requireDetectMatchesReference(t, cfg, steals(cfg))
	}
}

// TestDetourIs24Bytes pins the record's size: full-scale Fig. 2 holds
// about 7.2 M of them per mode.
func TestDetourIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Detour{}); got != 24 {
		t.Fatalf("Detour is %d bytes, want 24", got)
	}
}

func TestSourceString(t *testing.T) {
	for src, want := range sourceNames {
		if got := Source(src).String(); got != want {
			t.Fatalf("Source(%d) = %q, want %q", src, got, want)
		}
	}
	if got := Source(len(sourceNames)).String(); got != "source(8)" {
		t.Fatalf("out-of-range source = %q", got)
	}
}
