package faultmodel

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// FuzzParseSpec feeds ParseSpec arbitrary bytes. It must never panic,
// and a spec it accepts must either be refused by Process with an error
// or compile to a process that runs: a finite positive mean gap, a
// label that does not depend on the order the modes were written in,
// and batched gaps equal to one-at-a-time gaps. The committed corpus
// (testdata/fuzz/FuzzParseSpec) is the four systems.FaultMixes presets
// at one CE per hour; the malformed documents of TestParseSpecErrors
// are added here.
func FuzzParseSpec(f *testing.F) {
	for _, tc := range parseSpecErrorCases {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		p, err := s.Process()
		if err != nil {
			return
		}
		if mg := p.MeanGap(); badNumber(mg) || mg <= 0 {
			t.Fatalf("%v: MeanGap() = %v, want finite and positive", s, mg)
		}

		rev := s
		rev.Modes = make([]Mode, len(s.Modes))
		for i, m := range s.Modes {
			rev.Modes[len(s.Modes)-1-i] = m
		}
		q, err := rev.Process()
		if err != nil {
			t.Fatalf("%v: reversed modes refused: %v", s, err)
		}
		if p.String() != q.String() || s.String() != p.String() {
			t.Fatalf("label depends on mode order: %q, reversed %q, Spec.String %q", p, q, s)
		}

		// A train's length is drawn one uniform at a time, so the first
		// gaps cost time proportional to the modes' burst lengths.
		work := 0.0
		for _, m := range s.Modes {
			work += math.Max(m.BurstLen, 1)
		}
		if work > 1<<16 {
			return
		}
		const n = 64
		var batchState, stepState uint64
		batched := p.AppendGaps(nil, rng.NewStream(1, 0), &batchState, n)
		src := rng.NewStream(1, 0)
		for i, want := range batched {
			if got := p.NextGap(src, &stepState); got != want {
				t.Fatalf("%v: gap %d: NextGap %d, AppendGaps %d", s, i, got, want)
			}
		}
	})
}
