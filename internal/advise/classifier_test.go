package advise

import (
	"math/rand"
	"testing"

	"repro/internal/faultmodel"
)

// synthStream generates a CE address stream whose ground truth is one
// fault of the given kind, mimicking the footprints package faultmodel
// assigns to each mode. n >= 2 recommended for the spread kinds.
func synthStream(rnd *rand.Rand, kind faultmodel.FaultKind, n int) []uint64 {
	addrs := make([]uint64, n)
	switch kind {
	case faultmodel.FaultCell:
		// One stuck bit: every CE reports the same address.
		a := uint64(rnd.Int63n(1 << 40))
		for i := range addrs {
			addrs[i] = a
		}
	case faultmodel.FaultRow:
		// One row (8 KiB), hits spread across its columns.
		row := uint64(rnd.Int63n(1 << 27))
		for i := range addrs {
			// i<<3 in the low bits guarantees >= 2 distinct columns.
			addrs[i] = faultmodel.Compose(row, uint64(i%1024))
		}
	case faultmodel.FaultColumn:
		// One column coordinate repeated across many rows.
		col := uint64(rnd.Int63n(1024))
		for i := range addrs {
			addrs[i] = faultmodel.Compose(uint64(i+1), col)
		}
	default: // bank: scattered rows and columns
		for i := range addrs {
			addrs[i] = faultmodel.Compose(uint64(i+1), uint64(i%1024))
		}
	}
	return addrs
}

// TestClassifierRoundTrip is the property test: for every fault kind in
// faultmodel's taxonomy, a synthetic stream generated with that mode as
// ground truth must classify back to the same kind, regardless of the
// order the events arrive in.
func TestClassifierRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for _, kind := range faultmodel.Kinds() {
		for trial := 0; trial < 25; trial++ {
			n := DefaultMinSamples + rnd.Intn(100)
			stream := synthStream(rnd, kind, n)
			rnd.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })

			var fp Footprint
			for _, a := range stream {
				fp.Add(a, 0)
			}
			c := fp.Classify(0)
			if !c.Known {
				t.Fatalf("%v trial %d: %d samples not classified", kind, trial, n)
			}
			if c.Kind != kind {
				t.Fatalf("%v trial %d: classified as %v (n=%d)", kind, trial, c.Kind, n)
			}
			if c.Confidence <= 0 || c.Confidence > 1 {
				t.Fatalf("%v trial %d: confidence %v outside (0, 1]", kind, trial, c.Confidence)
			}
		}
	}
}

func TestClassifierLowSampleAmbiguity(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	for _, kind := range faultmodel.Kinds() {
		stream := synthStream(rnd, kind, DefaultMinSamples-1)
		var fp Footprint
		for _, a := range stream {
			fp.Add(a, 0)
		}
		if c := fp.Classify(0); c.Known {
			t.Fatalf("%v: %d samples classified as %v; below the floor the verdict must stay unknown",
				kind, DefaultMinSamples-1, c.Kind)
		}
	}
}

// TestClassifierMixedFaults: a population mixing two concentrated fault
// modes must degrade toward the conservative bank verdict (its footprint
// shows several rows and several columns) rather than report either
// constituent with high confidence.
func TestClassifierMixedFaults(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	rowStream := synthStream(rnd, faultmodel.FaultRow, 40)
	colStream := synthStream(rnd, faultmodel.FaultColumn, 40)
	var fp Footprint
	for i := range rowStream {
		fp.Add(rowStream[i], 0)
		fp.Add(colStream[i], 0)
	}
	c := fp.Classify(0)
	if !c.Known {
		t.Fatal("80 samples must classify")
	}
	if c.Kind != faultmodel.FaultBank {
		t.Fatalf("mixed row+column population classified as %v, want conservative bank", c.Kind)
	}
}

// TestClassifierPureCellHighConfidence: confidence grows with samples
// for an unambiguous fault.
func TestClassifierConfidenceGrowsWithSamples(t *testing.T) {
	var few, many Footprint
	for i := 0; i < DefaultMinSamples; i++ {
		few.Add(0xdead000, 0)
	}
	for i := 0; i < 50*DefaultMinSamples; i++ {
		many.Add(0xdead000, 0)
	}
	cf, cm := few.Classify(0), many.Classify(0)
	if cf.Kind != faultmodel.FaultCell || cm.Kind != faultmodel.FaultCell {
		t.Fatalf("cell streams classified %v / %v", cf.Kind, cm.Kind)
	}
	if cm.Confidence <= cf.Confidence {
		t.Fatalf("confidence did not grow: %v (n=%d) vs %v (n=%d)",
			cf.Confidence, DefaultMinSamples, cm.Confidence, 50*DefaultMinSamples)
	}
}

// TestFootprintOrderIndependence: merging the same observations in any
// order yields the identical classification — the footprint half of the
// determinism contract.
func TestFootprintOrderIndependence(t *testing.T) {
	rnd := rand.New(rand.NewSource(14))
	type obs struct {
		addr uint64
		bank int
	}
	// More distinct addresses than setCap, to exercise the bounded-set
	// keep-smallest union under permutation.
	obss := make([]obs, 3*setCap)
	for i := range obss {
		obss[i] = obs{addr: uint64(rnd.Int63n(1 << 40)), bank: rnd.Intn(16)}
	}
	var ref Footprint
	for _, o := range obss {
		ref.Add(o.addr, o.bank)
	}
	want := ref.Classify(0)
	for trial := 0; trial < 20; trial++ {
		perm := rnd.Perm(len(obss))
		var fp Footprint
		for _, pi := range perm {
			fp.Add(obss[pi].addr, obss[pi].bank)
		}
		if got := fp.Classify(0); got != want {
			t.Fatalf("trial %d: permuted insertion changed classification: %+v vs %+v", trial, got, want)
		}
	}
}

func TestBoundedSetKeepsSmallest(t *testing.T) {
	var s boundedSet
	for v := uint64(2 * setCap); v >= 1; v-- {
		s.add(v)
		s.add(v) // duplicates must not count
	}
	if s.size() != setCap {
		t.Fatalf("size = %d, want cap %d", s.size(), setCap)
	}
	for i, v := range s.xs {
		if v != uint64(i+1) {
			t.Fatalf("retained set must be the %d smallest: xs[%d] = %d", setCap, i, v)
		}
	}
}
