package core

// Engine golden. testdata/engine_golden.json was generated at the last
// commit that still compiled the pre-rework engine paths (heap event
// queue, direct collective expansion, one-at-a-time noise gaps), where
// a one-off run showed every legacy path and the current engine all
// reproduce it byte-for-byte. Comparing against it keeps "current
// engine == pre-rework engine" holding with a single engine compiled
// in. Regenerate only after an intentional model change, with the
// -update command a failing check prints.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/golden"
	"repro/internal/noise"
)

var engineGoldenPath = filepath.Join("testdata", "engine_golden.json")

// engineSection is one JSON document of the golden file.
// TestEngineGolden compares the whole file; the per-section tests say
// which document moved. The whole matrix renders in well under a
// second, so nothing is shared between them. render runs the figures
// with build as Options.Experiments: TestEngineGolden passes
// NewExperiment, so a fresh build is held to the golden, and the
// per-section tests nil, the process-wide memo.
type engineSection struct {
	name   string
	render func(build func(ExperimentConfig) (*Experiment, error)) ([]byte, error)
}

func (s engineSection) bytes(t *testing.T, build func(ExperimentConfig) (*Experiment, error)) []byte {
	t.Helper()
	out, err := s.render(build)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return out
}

func figureSection(id string, opts Options) engineSection {
	return engineSection{name: "fig" + id, render: func(build func(ExperimentConfig) (*Experiment, error)) ([]byte, error) {
		opts.Experiments = build
		f, err := RunFigure(context.Background(), id, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = f.WriteJSON(&buf)
		return buf.Bytes(), err
	}}
}

// engineSections is the golden file in document order. Two workloads
// cover both trace shapes: minife's allreduce/waitall-heavy iterations
// and lammps-crack's fine-grained p2p exchange. The raw-results
// document records makespan, per-rank finish times, traffic counters,
// CE accounting and the full profile of one scenario at a
// non-power-of-two rank count, so a divergence that renders
// identically in a figure still fails.
var engineSections = []engineSection{
	figureSection("3", tinyOpts("minife")),
	figureSection("4", tinyOpts("lammps-crack")),
	figureSection("5", tinyOpts("minife")),
	figureSection("6", tinyOpts("lammps-crack")),
	figureSection("7", tinyOpts("minife")),
	{name: "results", render: renderEngineResults},
}

type engineResults struct {
	BaselineMakespan int64   `json:"baseline_makespan_ns"`
	Makespan         int64   `json:"makespan_ns"`
	FinishTimes      []int64 `json:"finish_times_ns"`
	Messages         uint64  `json:"messages"`
	BytesMoved       int64   `json:"bytes_moved"`
	Events           uint64  `json:"events"`
	CEEvents         uint64  `json:"ce_events"`
	CEStolenNanos    int64   `json:"ce_stolen_ns"`
	SlowdownPct      float64 `json:"slowdown_pct"`
	ProfileWork      int64   `json:"profile_work_ns"`
	ProfileDetour    int64   `json:"profile_detour_ns"`
	ProfileWait      int64   `json:"profile_wait_ns"`
}

func renderEngineResults(func(ExperimentConfig) (*Experiment, error)) ([]byte, error) {
	e, err := NewExperiment(ExperimentConfig{Workload: "lulesh", Nodes: 27, Iterations: 3, TraceSeed: 7})
	if err != nil {
		return nil, err
	}
	res, err := e.Run(Scenario{MTBCE: 5_000_000, PerEvent: noise.Fixed(25_000), Target: 0, Seed: 42})
	if err != nil {
		return nil, err
	}
	p := res.Perturbed
	out, err := json.MarshalIndent(engineResults{
		BaselineMakespan: e.Baseline().Makespan,
		Makespan:         p.Makespan,
		FinishTimes:      p.FinishTimes,
		Messages:         p.Messages,
		BytesMoved:       p.BytesMoved,
		Events:           p.Events,
		CEEvents:         res.CEEvents,
		CEStolenNanos:    res.CEStolenNanos,
		SlowdownPct:      res.SlowdownPct,
		ProfileWork:      res.Profile.Work,
		ProfileDetour:    res.Profile.Detour,
		ProfileWait:      res.Profile.Wait,
	}, "", "  ")
	return append(out, '\n'), err
}

// TestEngineGolden is the engine-smoke target (Makefile, CI): the
// figure matrix and the raw results must match the committed golden
// byte-for-byte. TestEngineBitIdentical and TestEngineBitIdenticalResults
// name the document that moved.
func TestEngineGolden(t *testing.T) {
	var got bytes.Buffer
	for _, s := range engineSections {
		got.Write(s.bytes(t, NewExperiment))
	}
	golden.Check(t, engineGoldenPath, got.Bytes())
}

// checkEngineSection compares section i against the i-th document of
// the golden file.
func checkEngineSection(t *testing.T, i int) {
	t.Helper()
	file, err := os.ReadFile(engineGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(file))
	var want json.RawMessage
	for d := 0; d <= i; d++ {
		if err := dec.Decode(&want); err != nil {
			t.Fatalf("%s: document %d: %v", engineGoldenPath, d, err)
		}
	}
	s := engineSections[i]
	if got := bytes.TrimSpace(s.bytes(t, nil)); !bytes.Equal(got, want) {
		t.Errorf("%s diverges from the pre-rework engine golden\n--- got ---\n%s\n--- want ---\n%s", s.name, got, want)
	}
}

func TestEngineBitIdentical(t *testing.T) {
	for i, s := range engineSections[:len(engineSections)-1] {
		i := i
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			checkEngineSection(t, i)
		})
	}
}

func TestEngineBitIdenticalResults(t *testing.T) {
	last := len(engineSections) - 1 // the raw-results document
	var r engineResults
	if err := json.Unmarshal(engineSections[last].bytes(t, nil), &r); err != nil {
		t.Fatal(err)
	}
	if r.CEEvents == 0 {
		t.Fatal("scenario injected no CEs; the comparison would be vacuous")
	}
	checkEngineSection(t, last)
}
