package noise

import (
	"testing"

	"repro/internal/rng"
)

// scripted replays a fixed gap cycle: a composite process whose
// combined mean gap is dominated by a fast component while a rare slow
// component contributes occasional burst trains.
type scripted struct {
	gaps []int64
	mean float64
}

func (s *scripted) NextGap(_ *rng.Source, state *uint64) int64 {
	g := s.gaps[int(*state)%len(s.gaps)]
	*state++
	return g
}

func (s *scripted) MeanGap() float64 { return s.mean }

func (s *scripted) String() string { return "scripted-mix" }

// scriptedMix additionally reports its slowest component, the
// ComponentGapper contract mixtures implement.
type scriptedMix struct {
	scripted
	maxComp float64
}

func (s *scriptedMix) MaxComponentMeanGap() float64 { return s.maxComp }

// mixGaps is a burst train of six CEs 10ns apart after a long quiet
// gap.
// The combined mean gap (advertised as 50ns by the fast component's
// dominance) is far below the quiet stretch, so a guard calibrated to
// the combined mean misreads the train as saturation.
func mixGaps() []int64 { return []int64{100000, 10, 10, 10, 10, 10} }

// detourModel is what CE and SharedCE share; both must calibrate the
// saturation guard the same way.
type detourModel interface {
	Model
	Events() uint64
	Saturated() bool
}

func TestMixtureBurstNotSaturation(t *testing.T) {
	models := []struct {
		name  string
		build func(Config) (detourModel, error)
	}{
		{"CE", func(cfg Config) (detourModel, error) { return NewCE(1, cfg) }},
		{"SharedCE", func(cfg Config) (detourModel, error) { return NewSharedCE(1, 1, cfg) }},
	}
	for _, mk := range models {
		t.Run(mk.name, func(t *testing.T) {
			// Without component information the guard gap is the
			// combined mean (50ns): a single burst train steals 5*200 =
			// 1000ns > 50*10 and trips the guard. This is the false
			// positive the ComponentGapper contract exists to prevent.
			cfg := Config{
				Seed:             1,
				Arrivals:         &scripted{gaps: mixGaps(), mean: 50},
				Duration:         Fixed(200),
				Target:           AllNodes,
				SaturationFactor: 10,
			}
			m, err := mk.build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A short work interval overlapping the train: the guard
			// budget is max(20, 50)*10 = 500ns and the train steals
			// 6*200 = 1200ns.
			m.Extend(0, 99990, 20)
			if !m.Saturated() {
				t.Fatal("combined-mean guard unexpectedly survived the burst train; the regression scenario no longer bites")
			}

			// The same schedule with the slow component's mean gap
			// reported: the guard budget becomes 100000*10 and the train
			// passes as the legitimate burst it is.
			cfg.Arrivals = &scriptedMix{scripted{gaps: mixGaps(), mean: 50}, 100000}
			m, err = mk.build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			end := m.Extend(0, 99990, 20)
			if m.Saturated() {
				t.Fatal("burst train from a slow mode misread as saturation despite ComponentGapper")
			}
			if m.Events() != 6 || end != 100010+6*200 {
				t.Fatalf("burst train mischarged: events %d, end %d", m.Events(), end)
			}
		})
	}
}

func TestMixtureGenuineSaturationDetected(t *testing.T) {
	// A component that truly renews faster than its handling time must
	// still trip the guard even with the raised component budget.
	cfg := Config{
		Seed:             1,
		Arrivals:         &scriptedMix{scripted{gaps: []int64{10}, mean: 10}, 500},
		Duration:         Fixed(200),
		Target:           AllNodes,
		SaturationFactor: 10,
	}
	m, err := NewCE(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Extend(0, 0, 1000)
	if !m.Saturated() {
		t.Fatal("genuinely saturating mixture component not detected")
	}
}
