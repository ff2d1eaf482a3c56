package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/noise"
)

// compatFixture is one entry of testdata/spec_compat.json: a payload in
// the exact bytes commit a331413 (the last before the spec types moved
// here) journaled or posted for Body, and for simulate payloads what
// its resolver made of them. Regenerating the file means checking that
// commit out; see CHANGES.md, PR 14.
type compatFixture struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"` // simulate, sweep, cluster_sweep, sweep_created
	Body    string `json:"body"`
	Payload string `json:"payload"`
	Want    *struct {
		Workload   string `json:"workload"`
		Nodes      int    `json:"nodes"`
		Iterations int    `json:"iterations"`
		TraceSeed  uint64 `json:"trace_seed"`
		MTBCE      int64  `json:"mtbce_ns"`
		PerEvent   int64  `json:"per_event_ns"`
		Target     int32  `json:"target"`
		Seed       uint64 `json:"seed"`
		Arrivals   string `json:"arrivals"`
	} `json:"want"`
}

func compatFixtures(t testing.TB) []compatFixture {
	t.Helper()
	raw, err := os.ReadFile("testdata/spec_compat.json")
	if err != nil {
		t.Fatal(err)
	}
	var fx []compatFixture
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	return fx
}

// strict decodes the way the /v1 handlers do.
func strict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func arrivalsLabel(sc Scenario) string {
	if sc.Arrivals == nil {
		return ""
	}
	return sc.Arrivals.String()
}

// TestSpecCompat: every payload the parent commit wrote decodes,
// resolves to the same run and re-marshals to the same bytes — so its
// journals recover, its stored sweep results are still addressed by
// simcache.ResultKey("sweep", payload), and mixed-version clusters
// exchange the same bodies.
func TestSpecCompat(t *testing.T) {
	kinds := map[string]int{}
	for _, fx := range compatFixtures(t) {
		kinds[fx.Kind]++
		var again []byte
		var err error
		switch fx.Kind {
		case "simulate":
			for _, in := range []string{fx.Body, fx.Payload} {
				var spec RunSpec
				if err := strict([]byte(in), &spec); err != nil {
					t.Fatalf("%s: decode: %v", fx.Name, err)
				}
				cfg, sc, err := spec.Resolve(DefaultLimits())
				if err != nil {
					t.Fatalf("%s: resolve: %v", fx.Name, err)
				}
				w := fx.Want
				if cfg != (ExperimentConfig{Workload: w.Workload, Nodes: w.Nodes, Iterations: w.Iterations, TraceSeed: w.TraceSeed}) ||
					sc.MTBCE != w.MTBCE || sc.PerEvent != noise.Fixed(w.PerEvent) || sc.Target != w.Target ||
					sc.Seed != w.Seed || arrivalsLabel(sc) != w.Arrivals {
					t.Errorf("%s: resolved to %+v / %+v (%s), parent resolved to %+v", fx.Name, cfg, sc, arrivalsLabel(sc), *w)
				}
				if again, err = json.Marshal(spec); err != nil {
					t.Fatal(err)
				}
				if string(again) != fx.Payload {
					t.Errorf("%s: payload\n got %s\nwant %s", fx.Name, again, fx.Payload)
				}
			}
			continue
		case "sweep", "cluster_sweep":
			var opts Options
			if err := strict([]byte(fx.Payload), &opts); err != nil {
				t.Fatalf("%s: decode: %v", fx.Name, err)
			}
			if err := opts.Validate(DefaultLimits()); err != nil {
				t.Fatalf("%s: validate: %v", fx.Name, err)
			}
			again, err = json.Marshal(opts)
		case "sweep_created":
			// The coordinator's record, as far as this package knows it.
			var rec struct {
				Op      string   `json:"op"`
				SweepID string   `json:"sweep_id,omitempty"`
				Spec    *Options `json:"spec,omitempty"`
			}
			if err := strict([]byte(fx.Payload), &rec); err != nil {
				t.Fatalf("%s: decode: %v", fx.Name, err)
			}
			again, err = json.Marshal(rec)
		default:
			t.Fatalf("%s: unknown fixture kind %q", fx.Name, fx.Kind)
		}
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != fx.Payload {
			t.Errorf("%s: payload\n got %s\nwant %s", fx.Name, again, fx.Payload)
		}
	}
	for _, kind := range []string{"simulate", "sweep", "cluster_sweep", "sweep_created"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s fixture", kind)
		}
	}
}

// TestExplicitReducedScaleIsCanonicalized records the one spelling
// whose payload changes: "scale":"reduced" is the default written out,
// and now marshals like the default left out (same options, same
// figure; a result the parent stored under the written-out spelling is
// recomputed once).
func TestExplicitReducedScaleIsCanonicalized(t *testing.T) {
	var explicit, omitted Options
	if err := strict([]byte(`{"figure":"4","scale":"reduced","seed":1}`), &explicit); err != nil {
		t.Fatal(err)
	}
	if err := strict([]byte(`{"figure":"4","seed":1}`), &omitted); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(explicit, omitted) {
		t.Fatalf("explicit %+v, omitted %+v", explicit, omitted)
	}
	if b, _ := json.Marshal(explicit); string(b) != `{"figure":"4","seed":1}` {
		t.Fatalf("marshals as %s", b)
	}
}

func TestOptionsValidate(t *testing.T) {
	lim := DefaultLimits()
	for _, tc := range []struct {
		name string
		opts Options
		lim  Limits
		frag string // "" accepts
	}{
		{"zero", Options{}, lim, ""},
		{"full", Options{Figures: []string{"9", "3"}, Scale: Paper, Nodes: 16384, Iterations: 4096, Reps: 64,
			SpanNanos: maxSpanNanos, OpsBudget: maxOpsBudget, Workloads: []string{"hpcg", "minife"}}, lim, ""},
		{"unbounded", Options{Nodes: 1 << 20, Iterations: 1 << 20, Reps: 1 << 10}, Limits{}, ""},
		{"scale", Options{Scale: 7}, lim, "scale"},
		{"both selectors", Options{Figure: "4", Figures: []string{"5"}}, lim, "not both"},
		{"unknown figure", Options{Figure: "2"}, lim, `"2"`},
		{"unknown listed figure", Options{Figures: []string{"4", "12"}}, lim, `"12"`},
		{"repeated figure", Options{Figures: []string{"4", "5", "4"}}, lim, "twice"},
		{"unknown workload", Options{Workloads: []string{"doom"}}, lim, `"doom"`},
		{"repeated workload", Options{Workloads: []string{"minife", "minife"}}, lim, "twice"},
		{"one node", Options{Nodes: 1}, lim, "nodes"},
		{"one node unbounded", Options{Nodes: 1}, Limits{}, "at least 2"},
		{"too many nodes", Options{Nodes: 1 << 40}, lim, "nodes"},
		{"negative iters", Options{Iterations: -3}, lim, "iters"},
		{"too many iters", Options{Iterations: 4097}, lim, "iters"},
		{"negative reps", Options{Reps: -1}, lim, "reps"},
		{"too many reps", Options{Reps: 65}, lim, "reps"},
		{"negative span", Options{SpanNanos: -1}, lim, "span_ns"},
		{"huge span", Options{SpanNanos: maxSpanNanos + 1}, Limits{}, "span_ns"},
		{"negative budget", Options{OpsBudget: -1}, lim, "ops_budget"},
		{"huge budget", Options{OpsBudget: 1 << 40}, Limits{}, "ops_budget"},
	} {
		err := tc.opts.Validate(tc.lim)
		switch {
		case tc.frag == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.frag != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.frag != "" && !strings.Contains(err.Error(), tc.frag):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

// TestRunSpecLimits: the bounds Resolve enforces are the caller's.
func TestRunSpecLimits(t *testing.T) {
	base := RunSpec{Workload: "minife", Nodes: 64, MTBCENanos: 1e9, PerEventNanos: 1e6}
	for _, tc := range []struct {
		name string
		mod  func(*RunSpec)
		lim  Limits
		ok   bool
	}{
		{"defaults", func(*RunSpec) {}, DefaultLimits(), true},
		{"nodes over", func(s *RunSpec) { s.Nodes = 128 }, Limits{MaxNodes: 64}, false},
		{"nodes unbounded", func(s *RunSpec) { s.Nodes = 1 << 20 }, Limits{}, true},
		{"iters over", func(s *RunSpec) { s.Iters = 9 }, Limits{MaxIters: 8}, false},
		{"negative iters unbounded", func(s *RunSpec) { s.Iters = -1 }, Limits{}, false},
		{"reps over", func(s *RunSpec) { s.Reps = 65 }, DefaultLimits(), false},
		{"reps unbounded", func(s *RunSpec) { s.Reps = 1000 }, Limits{}, true},
	} {
		spec := base
		tc.mod(&spec)
		if _, _, err := spec.Resolve(tc.lim); (err == nil) != tc.ok {
			t.Errorf("%s: Resolve = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// parse runs args through bind's flags the way the commands do.
func parse(t *testing.T, bind func(*flag.FlagSet), args ...string) error {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	bind(fs)
	return ParseFlags(fs, args)
}

// TestRunSpecFlagsFillTheSpec: cesim's flags and a /v1/simulate body
// are two spellings of one spec — the flag form of a compat fixture
// resolves and marshals to that fixture's payload.
func TestRunSpecFlagsFillTheSpec(t *testing.T) {
	var spec RunSpec
	if err := parse(t, spec.BindFlags, "-workload", "lulesh", "-nodes", "64", "-iters", "4",
		"-system", "exascale-cielo-x10", "-mode", "firmware-emca", "-target", "3", "-seed", "7", "-reps", "2"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := spec.Resolve(Limits{}); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range compatFixtures(t) {
		if fx.Name == "simulate system and mode" {
			if string(got) != fx.Payload {
				t.Fatalf("flags marshal as\n     %s\nwant %s", got, fx.Payload)
			}
			return
		}
	}
	t.Fatal("fixture missing")
}

func TestRunSpecFlagDefaultsAndDurations(t *testing.T) {
	var spec RunSpec
	if err := parse(t, spec.BindFlags, "-mtbce", "500ms", "-perevent", "133ms", "-fault-mix", "bursty-row"); err != nil {
		t.Fatal(err)
	}
	cfg, sc, err := spec.Resolve(Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg != (ExperimentConfig{Workload: "minife", Nodes: 128, Iterations: 8, TraceSeed: 1}) ||
		sc.MTBCE != 5e8 || sc.PerEvent != noise.Fixed(133e6) || sc.Target != noise.AllNodes || sc.Seed != 2 || spec.Reps != 3 {
		t.Fatalf("defaults resolved to %+v / %+v reps %d", cfg, sc, spec.Reps)
	}
	if !strings.HasPrefix(arrivalsLabel(sc), "faultmix(mtbce=500000000ns,") {
		t.Fatalf("arrivals %q", arrivalsLabel(sc))
	}
	for _, bad := range [][]string{{"-target", "x"}, {"-target", "4294967296"}, {"-fault-mix", "nonesuch"}, {"-mtbce", "5"}} {
		var s RunSpec
		if err := parse(t, s.BindFlags, bad...); err == nil {
			t.Errorf("%v: accepted", bad)
		}
	}
}

func TestOptionsFlags(t *testing.T) {
	var opts Options
	if err := parse(t, opts.BindFlags, "-scale", "paper", "-nodes", "32", "-iters", "3", "-reps", "2", "-seed", "11"); err != nil {
		t.Fatal(err)
	}
	if want := (Options{Scale: Paper, Nodes: 32, Iterations: 3, Reps: 2, Seed: 11}); !reflect.DeepEqual(opts, want) {
		t.Fatalf("flags filled %+v, want %+v", opts, want)
	}
	var def Options
	if err := parse(t, def.BindFlags); err != nil {
		t.Fatal(err)
	}
	if want := (Options{Seed: 1}); !reflect.DeepEqual(def, want) {
		t.Fatalf("flag defaults %+v, want %+v", def, want)
	}
	var bad Options
	err := parse(t, bad.BindFlags, "-scale", "bogus")
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), "reduced or paper") {
		t.Fatalf("-scale bogus: %v", err)
	}
}

// FuzzSpecRoundTrip feeds arbitrary bytes through the strict decoders.
// Neither Resolve nor Validate may panic, and an accepted spec must
// survive its own wire form: a resolved run spec marshals to a fixed
// point, and resolving what that unmarshals to yields the identical
// config, scenario seed and arrivals label — what journal recovery
// relies on when handleSimulate marshals after Resolve.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, fx := range compatFixtures(f) {
		f.Add([]byte(fx.Payload))
		if fx.Body != "" {
			f.Add([]byte(fx.Body))
		}
	}
	f.Add([]byte(`{"figure":"4","figures":["4","4"],"reps":-1,"span_ns":-5,"ops_budget":1099511627776}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec RunSpec
		if strict(data, &spec) == nil {
			if cfg, sc, err := spec.Resolve(DefaultLimits()); err == nil {
				wire, err := json.Marshal(spec)
				if err != nil {
					t.Fatalf("marshal resolved spec: %v", err)
				}
				var back RunSpec
				if err := strict(wire, &back); err != nil {
					t.Fatalf("own wire form %s does not decode: %v", wire, err)
				}
				cfg2, sc2, err := back.Resolve(DefaultLimits())
				if err != nil {
					t.Fatalf("own wire form %s does not resolve: %v", wire, err)
				}
				if cfg2 != cfg || sc2.Seed != sc.Seed || sc2.MTBCE != sc.MTBCE || sc2.PerEvent != sc.PerEvent ||
					sc2.Target != sc.Target || arrivalsLabel(sc2) != arrivalsLabel(sc) {
					t.Fatalf("%s resolves to %+v / %+v (%s), first resolved to %+v / %+v (%s)",
						wire, cfg2, sc2, arrivalsLabel(sc2), cfg, sc, arrivalsLabel(sc))
				}
				if again, _ := json.Marshal(back); !bytes.Equal(again, wire) {
					t.Fatalf("wire form is not a fixed point: %s then %s", wire, again)
				}
			}
		}
		var opts Options
		if strict(data, &opts) == nil && opts.Validate(DefaultLimits()) == nil {
			wire, err := json.Marshal(opts)
			if err != nil {
				t.Fatalf("marshal accepted options: %v", err)
			}
			var back Options
			if err := strict(wire, &back); err != nil {
				t.Fatalf("own wire form %s does not decode: %v", wire, err)
			}
			if err := back.Validate(DefaultLimits()); err != nil {
				t.Fatalf("own wire form %s does not validate: %v", wire, err)
			}
			if again, _ := json.Marshal(back); !bytes.Equal(again, wire) {
				t.Fatalf("wire form is not a fixed point: %s then %s", wire, again)
			}
		}
	})
}
