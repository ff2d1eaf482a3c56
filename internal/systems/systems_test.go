package systems

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mca"
)

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 10 {
		t.Fatalf("catalog has %d rows, Table II has 10", len(cat))
	}
	names := map[string]bool{}
	for _, s := range cat {
		if names[s.Name] {
			t.Fatalf("duplicate system %q", s.Name)
		}
		names[s.Name] = true
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("cielo")
	if err != nil {
		t.Fatal(err)
	}
	if s.MTBCESeconds != 1.2e6 || s.SimNodes != 8192 {
		t.Fatalf("cielo row wrong: %+v", s)
	}
	if _, err := ByName("k-computer"); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestTableIIValues(t *testing.T) {
	// Spot-check stated values against the paper.
	cases := map[string]struct {
		mtbce    float64
		simNodes int
	}{
		"cielo":                    {1.2e6, 8192},
		"trinity":                  {311400, 16384},
		"summit":                   {62280, 4096},
		"exascale-cielo":           {55440, 16384},
		"exascale-cielo-x10":       {5544, 16384},
		"exascale-cielo-x20":       {3024, 16384},
		"exascale-cielo-x100":      {554.4, 16384},
		"exascale-facebook-median": {432, 16384},
	}
	for name, want := range cases {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.MTBCESeconds != want.mtbce {
			t.Fatalf("%s MTBCE = %v, want %v", name, s.MTBCESeconds, want.mtbce)
		}
		if s.SimNodes != want.simNodes {
			t.Fatalf("%s sim nodes = %d, want %d", name, s.SimNodes, want.simNodes)
		}
	}
}

func TestMTBCENanos(t *testing.T) {
	s, err := ByName("exascale-cielo-x10")
	if err != nil {
		t.Fatal(err)
	}
	if s.MTBCENanos() != 5544*1e9 {
		t.Fatalf("MTBCENanos = %d", s.MTBCENanos())
	}
}

func TestComputedMTBCECloseToStated(t *testing.T) {
	// The stated MTBCE values should be within ~25% of the values
	// derived from CE/node/year. Table II is internally inconsistent at
	// that level (e.g. Summit: 425.6 CE/yr implies 74,148 s but the
	// table states 62,280 s); the stated MTBCE column is authoritative.
	for _, s := range Catalog() {
		derived := s.ComputedMTBCESeconds()
		rel := math.Abs(derived-s.MTBCESeconds) / s.MTBCESeconds
		if rel > 0.25 {
			t.Fatalf("%s: derived MTBCE %v vs stated %v (%.0f%% off)", s.Name, derived, s.MTBCESeconds, rel*100)
		}
	}
}

func TestExascaleScaling(t *testing.T) {
	base, _ := ByName("exascale-cielo")
	x10, _ := ByName("exascale-cielo-x10")
	x100, _ := ByName("exascale-cielo-x100")
	if x10.CEPerNodeYear != 10*base.CEPerNodeYear {
		t.Fatal("x10 rate is not 10x base")
	}
	if x100.CEPerNodeYear != 100*base.CEPerNodeYear {
		t.Fatal("x100 rate is not 100x base")
	}
	// MTBCE scales inversely (to Table II rounding).
	if math.Abs(base.MTBCESeconds/10-x10.MTBCESeconds) > 1 {
		t.Fatalf("x10 MTBCE %v vs base/10 %v", x10.MTBCESeconds, base.MTBCESeconds/10)
	}
}

func TestFacebookMedianIsRoughly120xCielo(t *testing.T) {
	// The paper: "about 120X of that measured on Cielo".
	fb, _ := ByName("exascale-facebook-median")
	base, _ := ByName("exascale-cielo")
	ratio := fb.CEPerNodeYear / base.CEPerNodeYear
	if ratio < 100 || ratio > 140 {
		t.Fatalf("facebook-median/cielo rate ratio = %v, want ~120", ratio)
	}
}

func TestSimulatedSubset(t *testing.T) {
	sim := Simulated()
	if len(sim) != 8 {
		t.Fatalf("simulated rows = %d, want 8 (3 HPC + 5 exascale)", len(sim))
	}
	for _, s := range sim {
		if s.SimNodes == 0 {
			t.Fatalf("%s has no sim nodes", s.Name)
		}
	}
}

func TestExascaleRows(t *testing.T) {
	rows := ExascaleRows()
	if len(rows) != 5 {
		t.Fatalf("exascale rows = %d, want 5", len(rows))
	}
	for _, s := range rows {
		if s.Nodes != 16384 || s.GiBPerNode != 700 {
			t.Fatalf("%s: exascale systems are 16,384 nodes x 700 GiB, got %+v", s.Name, s)
		}
	}
}

func TestLoggingModes(t *testing.T) {
	modes := LoggingModes()
	if len(modes) != 3 {
		t.Fatalf("logging modes = %d, want 3", len(modes))
	}
	if HardwareOnly.PerEventNanos != 150 {
		t.Fatal("hardware-only is 150ns in the paper")
	}
	if SoftwareCMCI.PerEventNanos != 775000 {
		t.Fatal("software logging is 775us in the paper")
	}
	if FirmwareEMCA.PerEventNanos != 133000000 {
		t.Fatal("firmware logging is 133ms in the paper")
	}
	for _, m := range modes {
		got, err := LoggingModeByName(m.Name)
		if err != nil || got != m {
			t.Fatalf("LoggingModeByName(%q) = %+v, %v", m.Name, got, err)
		}
	}
	if _, err := LoggingModeByName("telepathy"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestFaultMixes(t *testing.T) {
	names := []string{"field-ddr4", "high-altitude", "skewed-dimms", "bursty-row"}
	mixes := FaultMixes()
	if len(mixes) != len(names) {
		t.Fatalf("fault mixes = %d, want %d", len(mixes), len(names))
	}
	for i, m := range mixes {
		if m.Name != names[i] {
			t.Fatalf("preset %d named %q, want %q (names are API; figures and flags key on them)", i, m.Name, names[i])
		}
		if m.Description == "" {
			t.Fatalf("%s: empty description", m.Name)
		}
		if m.Spec.MTBCENanos != 0 {
			t.Fatalf("%s: presets carry composition only; MTBCE comes from the scenario", m.Name)
		}
		// Every preset must compile at a scenario-supplied rate.
		if _, err := m.Spec.WithMTBCE(3_600_000_000_000).Process(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		got, err := FaultMixByName(m.Name)
		if err != nil {
			t.Fatalf("FaultMixByName(%q): %v", m.Name, err)
		}
		if got.Name != m.Name || len(got.Spec.Modes) != len(m.Spec.Modes) {
			t.Fatalf("FaultMixByName(%q) returned %+v", m.Name, got)
		}
	}
	if _, err := FaultMixByName("gamma-rays"); err == nil {
		t.Fatal("unknown fault mix accepted")
	}
	if got := FaultMixNames(); len(got) != len(names) || got[0] != "field-ddr4" {
		t.Fatalf("FaultMixNames() = %v", got)
	}
	// The flux knob is what distinguishes high-altitude from field-ddr4.
	ha, _ := FaultMixByName("high-altitude")
	if ha.Spec.Flux != 4 {
		t.Fatalf("high-altitude flux = %v, want 4", ha.Spec.Flux)
	}
	// bursty-row must look storm-prone to the mca bridge.
	br, _ := FaultMixByName("bursty-row")
	cfg, err := br.Spec.WithMTBCE(3_600_000_000_000).StormMCAConfig(1, mca.Software)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BurstLen != 64 {
		t.Fatalf("bursty-row storm burst len = %d, want 64", cfg.BurstLen)
	}
}

// TestResolveFaultMix covers the -fault-mix convention shared by cesim,
// retiresim and tracegen: preset name, else JSON spec file, else an
// error naming the presets.
func TestResolveFaultMix(t *testing.T) {
	preset, err := ResolveFaultMix("bursty-row")
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := FaultMixByName("bursty-row"); !reflect.DeepEqual(preset, want.Spec) {
		t.Fatalf("preset resolved to %+v, want %+v", preset, want.Spec)
	}

	dir := t.TempDir()
	file := filepath.Join(dir, "mix.json")
	if err := os.WriteFile(file, []byte(`{"mtbce_ns": 1000000, "modes": [{"kind": "cell", "weight": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := ResolveFaultMix(file)
	if err != nil {
		t.Fatal(err)
	}
	if spec.MTBCENanos != 1000000 || len(spec.Modes) != 1 || spec.Modes[0].Kind != "cell" {
		t.Fatalf("file resolved to %+v", spec)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"modes": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResolveFaultMix(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("malformed spec file: err = %v, want one naming the file", err)
	}

	_, err = ResolveFaultMix(filepath.Join(dir, "gamma-rays"))
	if err == nil || !strings.Contains(err.Error(), "neither a preset") || !strings.Contains(err.Error(), "field-ddr4") {
		t.Fatalf("neither preset nor file: err = %v, want one listing the presets", err)
	}
}
