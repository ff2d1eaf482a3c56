package faultmodel

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/noise"
	"repro/internal/rng"
)

// testSpec is a representative mixture: permanent cell and bursty row
// faults plus a transient cell component.
func testSpec() Spec {
	return Spec{
		MTBCENanos: 1e6,
		Modes: []Mode{
			{Kind: "cell", Weight: 0.5},
			{Kind: "row", Weight: 0.3, BurstLen: 8, BurstGapNanos: 2000},
			{Kind: "cell", Weight: 0.2, Transient: true},
		},
	}
}

func TestValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		spec Spec
		want string // error substring, "" for valid
	}{
		{"valid", testSpec(), ""},
		{"valid-skew-flux", Spec{MTBCENanos: 1e6, Modes: []Mode{{Kind: "bank", Weight: 1}}, SkewSigma: 2, Flux: 4}, ""},
		{"no-modes", Spec{MTBCENanos: 1e6}, "no modes"},
		{"negative-mtbce", Spec{MTBCENanos: -1, Modes: []Mode{{Kind: "cell", Weight: 1}}, SkewSigma: 0}, "mtbce_ns"},
		{"unknown-kind", Spec{Modes: []Mode{{Kind: "rank", Weight: 1}}}, `modes[0]: unknown fault kind "rank"`},
		{"zero-weight", Spec{Modes: []Mode{{Kind: "cell", Weight: 0}, {Kind: "row", Weight: 1}}}, "modes[0] (cell): weight"},
		{"negative-weight", Spec{Modes: []Mode{{Kind: "row", Weight: -0.5}, {Kind: "cell", Weight: 1.5}}}, "modes[0] (row): weight"},
		{"nan-weight", Spec{Modes: []Mode{{Kind: "cell", Weight: nan}}}, "modes[0] (cell): weight"},
		{"inf-weight", Spec{Modes: []Mode{{Kind: "cell", Weight: inf}}}, "modes[0] (cell): weight"},
		{"weights-dont-sum", Spec{Modes: []Mode{{Kind: "cell", Weight: 0.5}, {Kind: "row", Weight: 0.4}}}, "sum to 1"},
		{"fractional-burst", Spec{Modes: []Mode{{Kind: "cell", Weight: 1, BurstLen: 0.5}}}, "burst_len"},
		{"nan-burst", Spec{Modes: []Mode{{Kind: "cell", Weight: 1, BurstLen: nan}}}, "burst_len"},
		{"burst-without-gap", Spec{Modes: []Mode{{Kind: "row", Weight: 1, BurstLen: 4}}}, "needs a positive burst_gap_ns"},
		{"huge-burst", Spec{Modes: []Mode{{Kind: "row", Weight: 1, BurstLen: 1e18, BurstGapNanos: 1}}}, "burst_len"},
		{"negative-burst-gap", Spec{Modes: []Mode{{Kind: "row", Weight: 1, BurstGapNanos: -5}}}, "burst_gap_ns"},
		{"nan-skew", Spec{Modes: []Mode{{Kind: "cell", Weight: 1}}, SkewSigma: nan}, "skew_sigma"},
		{"inf-skew", Spec{Modes: []Mode{{Kind: "cell", Weight: 1}}, SkewSigma: inf}, "skew_sigma"},
		{"huge-skew", Spec{Modes: []Mode{{Kind: "cell", Weight: 1}}, SkewSigma: 1000}, "skew_sigma"},
		{"negative-skew", Spec{Modes: []Mode{{Kind: "cell", Weight: 1}}, SkewSigma: -1}, "skew_sigma"},
		{"nan-flux", Spec{Modes: []Mode{{Kind: "cell", Weight: 1}}, Flux: nan}, "flux"},
		{"inf-flux", Spec{Modes: []Mode{{Kind: "cell", Weight: 1}}, Flux: inf}, "flux"},
		{"negative-flux", Spec{Modes: []Mode{{Kind: "cell", Weight: 1}}, Flux: -2}, "flux"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestProcessErrors(t *testing.T) {
	// A burst train that alone exceeds the mode's mean gap cannot hit
	// its target rate with any positive quiet gap.
	s := Spec{MTBCENanos: 1000, Modes: []Mode{{Kind: "row", Weight: 1, BurstLen: 10, BurstGapNanos: 2000}}}
	if _, err := s.Process(); err == nil || !strings.Contains(err.Error(), "exceeds the mode's mean gap") {
		t.Fatalf("Process() error = %v, want burst-train error", err)
	}
	// Rates no clock resolves: a mode faster than one CE per nanosecond,
	// and a mixture whose every rate underflows to zero.
	s = Spec{MTBCENanos: 1, Modes: []Mode{{Kind: "cell", Weight: 1, Transient: true}}, Flux: 1e300}
	if _, err := s.Process(); err == nil || !strings.Contains(err.Error(), "one CE per nanosecond") {
		t.Fatalf("Process() error = %v, want rate error", err)
	}
	s.Flux = 1e-320
	if _, err := s.Process(); err == nil || !strings.Contains(err.Error(), "underflows") {
		t.Fatalf("Process() error = %v, want underflow error", err)
	}
	// Composition-only specs (catalog presets) need a rate attached.
	s = Spec{Modes: []Mode{{Kind: "cell", Weight: 1}}}
	if _, err := s.Process(); err == nil || !strings.Contains(err.Error(), "mtbce_ns") {
		t.Fatalf("Process() error = %v, want mtbce_ns error", err)
	}
	if _, err := s.WithMTBCE(1e6).Process(); err != nil {
		t.Fatalf("WithMTBCE Process() = %v, want nil", err)
	}
	// WithMTBCE must not override an explicit spec value.
	if got := testSpec().WithMTBCE(42).MTBCENanos; got != 1e6 {
		t.Fatalf("WithMTBCE overrode explicit mtbce: got %d", got)
	}
}

// parseSpecErrorCases are the malformed documents ParseSpec must reject
// with a located, named error; FuzzParseSpec seeds its corpus with
// them.
var parseSpecErrorCases = []struct {
	name, in, want string
}{
	{"unknown-field", `{"modes":[{"kind":"cell","weight":1}],"skew":2}`, `unknown field "skew"`},
	{"syntax", "{\n  \"modes\": [,]\n}", "line 2:14"},
	{"type", "{\n\"modes\": [{\"kind\": 3}]\n}", "line 2:21"},
	{"trailing", `{"modes":[{"kind":"cell","weight":1}]} {}`, "trailing data"},
	{"stray-brace", `{"modes":[{"kind":"cell","weight":1}]}}`, "line 1:39: trailing data"},
	{"stray-bracket", "{\"modes\":[{\"kind\":\"cell\",\"weight\":1}]}\n]", "line 1:39: trailing data"},
	{"invalid", `{"modes":[]}`, "no modes"},
}

func TestParseSpecErrors(t *testing.T) {
	for _, tc := range parseSpecErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseSpec(%q) error = %v, want containing %q", tc.in, err, tc.want)
			}
		})
	}
	got, err := ParseSpec([]byte(`{"mtbce_ns": 1000000, "modes":[{"kind":"cell","weight":1}], "flux": 2}`))
	if err != nil {
		t.Fatalf("ParseSpec(valid) = %v", err)
	}
	if got.MTBCENanos != 1e6 || got.Flux != 2 || len(got.Modes) != 1 {
		t.Fatalf("ParseSpec(valid) = %+v", got)
	}
}

// gaps drives a process the way noise.CE does for one node and returns
// the first n gaps.
func gaps(t *testing.T, s Spec, seed uint64, node uint64, n int) []int64 {
	t.Helper()
	p, err := s.Process()
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewStream(seed, node)
	var state uint64
	out := make([]int64, n)
	for i := range out {
		out[i] = p.NextGap(src, &state)
	}
	return out
}

func TestDeterministicReplay(t *testing.T) {
	a := gaps(t, testSpec(), 7, 3, 2000)
	b := gaps(t, testSpec(), 7, 3, 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gap %d differs across replays: %d vs %d", i, a[i], b[i])
		}
	}
	// A different node must see a different schedule.
	c := gaps(t, testSpec(), 7, 4, 2000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("nodes 3 and 4 produced identical schedules")
	}
}

func TestPermutedModesBitIdentical(t *testing.T) {
	s := testSpec()
	perm := Spec{MTBCENanos: s.MTBCENanos, Modes: []Mode{s.Modes[2], s.Modes[0], s.Modes[1]}}
	a := gaps(t, s, 11, 5, 2000)
	b := gaps(t, perm, 11, 5, 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gap %d differs under mode permutation: %d vs %d", i, a[i], b[i])
		}
	}
	ea, err := s.Events(11, 5, 500)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := perm.Events(11, 5, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d differs under mode permutation: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

func TestAppendGapsMatchesNextGap(t *testing.T) {
	s := testSpec()
	want := gaps(t, s, 3, 9, 2000)
	p, err := s.Process()
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewStream(3, 9)
	var state uint64
	var got []int64
	sizes := []int{1, 16, 7, 5}
	for i := 0; len(got) < 2000; i++ {
		got = p.AppendGaps(got, src, &state, sizes[i%len(sizes)])
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batched gap %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMeanGapEmpirical(t *testing.T) {
	s := testSpec() // skew 0: every node runs at the population rate
	p, err := s.Process()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.MeanGap(), 1e6; math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("MeanGap() = %v, want %v", got, want)
	}
	const n = 200000
	var sum float64
	for _, g := range gaps(t, s, 1, 0, n) {
		sum += float64(g)
	}
	mean := sum / n
	if math.Abs(mean-1e6)/1e6 > 0.05 {
		t.Fatalf("empirical mean gap %v, want within 5%% of 1e6", mean)
	}
}

func TestFluxScalesTransientRate(t *testing.T) {
	base := Spec{MTBCENanos: 1e6, Modes: []Mode{{Kind: "cell", Weight: 1, Transient: true}}}
	p1, err := base.Process()
	if err != nil {
		t.Fatal(err)
	}
	quad := base
	quad.Flux = 4
	p4, err := quad.Process()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p4.MeanGap(), p1.MeanGap()/4; math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("flux-4 MeanGap = %v, want %v", got, want)
	}
	// Flux does not touch permanent modes.
	perm := Spec{MTBCENanos: 1e6, Modes: []Mode{{Kind: "cell", Weight: 1}}, Flux: 4}
	pp, err := perm.Process()
	if err != nil {
		t.Fatal(err)
	}
	if got := pp.MeanGap(); got != 1e6 {
		t.Fatalf("flux scaled a permanent mode: MeanGap = %v", got)
	}
}

func TestSkewVariesNodes(t *testing.T) {
	s := testSpec()
	s.SkewSigma = 2
	// Population mean folds in E[lognormal] = exp(sigma^2/2).
	p, err := s.Process()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.MeanGap(), 1e6/math.Exp(2); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("skewed MeanGap = %v, want %v", got, want)
	}
	// Node-level rates spread: with sigma 2, 8 nodes essentially never
	// land within 2x of each other all at once.
	const n = 20000
	var means []float64
	for node := uint64(0); node < 8; node++ {
		var sum float64
		for _, g := range gaps(t, s, 5, node, n) {
			sum += float64(g)
		}
		means = append(means, sum/n)
	}
	lo, hi := means[0], means[0]
	for _, m := range means[1:] {
		lo = math.Min(lo, m)
		hi = math.Max(hi, m)
	}
	if hi/lo < 2 {
		t.Fatalf("sigma-2 skew produced node mean gaps within 2x: min %v max %v", lo, hi)
	}
}

// TestProcessSharedAcrossGoroutines: repetitions running at once share
// one Process through their own noise.CEs, as core's fan-out does. Each
// must charge exactly what it charges when run alone, and none may write
// to the shared Process.
func TestProcessSharedAcrossGoroutines(t *testing.T) {
	s := testSpec()
	s.SkewSigma = 1
	p, err := s.Process()
	if err != nil {
		t.Fatal(err)
	}
	const reps, nodes = 8, 4
	// run drives one repetition and returns every window's end, then
	// its event count and stolen time.
	run := func(seed uint64) []int64 {
		m, err := noise.NewCE(nodes, noise.Config{Seed: seed, Arrivals: p, Duration: noise.Fixed(5000), Target: noise.AllNodes})
		if err != nil {
			t.Error(err)
			return nil
		}
		var out []int64
		var clock [nodes]int64
		for i := 0; i < 2000; i++ {
			n := i % nodes
			clock[n] = m.Extend(int32(n), clock[n]+int64(i%7)*10_000, 200_000)
			out = append(out, clock[n])
		}
		return append(out, int64(m.Events()), m.Stolen())
	}
	want := make([][]int64, reps)
	for r := range want {
		want[r] = run(uint64(r))
	}
	got := make([][]int64, reps)
	var wg sync.WaitGroup
	for r := range got {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got[r] = run(uint64(r))
		}(r)
	}
	wg.Wait()
	for r := range want {
		if !slices.Equal(got[r], want[r]) {
			t.Fatalf("rep %d: concurrent run diverged from the same run alone", r)
		}
		if n := len(want[r]); want[r][n-2] == 0 {
			t.Fatalf("rep %d charged no CE; the comparison is vacuous", r)
		}
	}
	if len(p.nodes) != 0 {
		t.Fatalf("the runs' draws wrote %d node states into the shared Process", len(p.nodes))
	}
}
