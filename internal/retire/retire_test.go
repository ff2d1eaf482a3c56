package retire

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/faultmodel"
)

const year = 24 * 365 // hours

// oneMode is a population of a single permanent fault mode at one CE
// per hour.
func oneMode(kind string) faultmodel.Spec {
	return faultmodel.Spec{MTBCENanos: 3600e9, Modes: []faultmodel.Mode{{Kind: kind, Weight: 1}}}
}

// mixed is a cell-dominant population with every footprint and a
// transient component, at one CE per hour.
func mixed() faultmodel.Spec {
	return faultmodel.Spec{
		MTBCENanos: 3600e9,
		Modes: []faultmodel.Mode{
			{Kind: "cell", Weight: 0.45},
			{Kind: "cell", Weight: 0.10, Transient: true},
			{Kind: "row", Weight: 0.15, BurstLen: 8, BurstGapNanos: 2e6},
			{Kind: "column", Weight: 0.15},
			{Kind: "bank", Weight: 0.15},
		},
	}
}

func baseCfg() Config {
	return Config{
		Seed:   1,
		Hours:  year,
		Spec:   mixed(),
		Policy: Policy{Threshold: 3, MaxPages: 64},
	}
}

func mustSim(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return res
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Hours: 0, Spec: mixed()},
		{Hours: math.NaN(), Spec: mixed()},
		{Hours: 1e9, Spec: mixed()}, // span overflows int64 nanoseconds
		{Hours: 1},                  // no fault population
		{Hours: 1, Spec: faultmodel.Spec{Modes: mixed().Modes}}, // no rate
		{Hours: 1, Spec: faultmodel.Spec{MTBCENanos: 1, Modes: []faultmodel.Mode{{Kind: "rank", Weight: 1}}}},
		{Hours: 1, Spec: mixed(), Policy: Policy{Threshold: -1}},
		{Hours: 1, Spec: mixed(), Policy: Policy{MaxPages: -1}},
	}
	for i, cfg := range bad {
		if _, err := Simulate(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := mustSim(t, baseCfg())
	b := mustSim(t, baseCfg())
	if *a != *b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
	cfg := baseCfg()
	cfg.Seed = 2
	if c := mustSim(t, cfg); *a == *c {
		t.Fatalf("seeds 1 and 2 replayed the same stream: %+v", a)
	}
}

func TestAccounting(t *testing.T) {
	res := mustSim(t, baseCfg())
	if res.CEsGenerated != res.CEsLogged+res.CEsSuppressed {
		t.Fatalf("accounting broken: %d != %d + %d", res.CEsGenerated, res.CEsLogged, res.CEsSuppressed)
	}
	if res.BytesRetired != int64(res.PagesRetired)*4096 {
		t.Fatal("bytes/pages mismatch")
	}
	byKind := 0
	for _, k := range faultmodel.Kinds() {
		if res.CEsByKind[k] == 0 {
			t.Fatalf("no %s CEs in a year of the mixed population: %+v", k, res)
		}
		byKind += res.CEsByKind[k]
	}
	if byKind != res.CEsGenerated {
		t.Fatalf("per-kind counts sum to %d, generated %d", byKind, res.CEsGenerated)
	}
}

func TestRetirementSuppressesCEs(t *testing.T) {
	with := mustSim(t, baseCfg())
	cfg := baseCfg()
	cfg.Policy.Threshold = 0 // disabled
	without := mustSim(t, cfg)
	if with.CEsSuppressed == 0 {
		t.Fatal("retirement suppressed nothing")
	}
	if without.CEsSuppressed != 0 || without.PagesRetired != 0 {
		t.Fatalf("disabled policy still retired: %+v", without)
	}
	// Identical seeds generate identical CE streams; logged CEs must
	// strictly drop with retirement on.
	if with.CEsGenerated != without.CEsGenerated {
		t.Fatalf("the policy changed the stream: %d vs %d generated", with.CEsGenerated, without.CEsGenerated)
	}
	if with.CEsLogged >= without.CEsLogged {
		t.Fatalf("retirement did not reduce logged CEs: %d vs %d", with.CEsLogged, without.CEsLogged)
	}
}

func TestThresholdZeroLogsEverything(t *testing.T) {
	// Retirement off: every generated CE is logged, so the logged
	// MTBCE is the spec's own rate (no skew: the node runs at the
	// population rate).
	cfg := baseCfg()
	cfg.Policy.Threshold = 0
	res := mustSim(t, cfg)
	if res.CEsLogged != res.CEsGenerated || res.CEsGenerated == 0 {
		t.Fatalf("threshold 0 logged %d of %d generated CEs", res.CEsLogged, res.CEsGenerated)
	}
	got, want := float64(res.LoggedMTBCENanos(cfg.Hours)), float64(cfg.Spec.MTBCENanos)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("logged MTBCE %v, want within 5%% of the spec's %v", got, want)
	}
}

func TestCellFaultsWellContained(t *testing.T) {
	// One permanent cell or row fault lives on one or two pages: it is
	// silenced after Threshold logged CEs per page.
	for kind, pages := range map[string]int{"cell": 1, "row": 2} {
		cfg := baseCfg()
		cfg.Spec = oneMode(kind)
		cfg.Policy = Policy{Threshold: 2, MaxPages: 1 << 20}
		res := mustSim(t, cfg)
		if res.PagesRetired != pages {
			t.Fatalf("%s fault retired %d pages, want %d", kind, res.PagesRetired, pages)
		}
		if maxLogged := pages * cfg.Policy.Threshold; res.CEsLogged > maxLogged {
			t.Fatalf("%s fault logged %d CEs, containment bound %d", kind, res.CEsLogged, maxLogged)
		}
		if res.SuppressionPct() < 99 {
			t.Fatalf("%s-fault suppression only %.1f%%, expected near total", kind, res.SuppressionPct())
		}
	}
}

func TestColumnFaultsEvadeRetirement(t *testing.T) {
	// Column and bank faults scatter over thousands of pages; with the
	// default 64-page budget and per-page threshold, most CEs keep
	// being logged.
	cell := baseCfg()
	cell.Spec = oneMode("cell")
	cellRes := mustSim(t, cell)
	for _, kind := range []string{"column", "bank"} {
		cfg := baseCfg()
		cfg.Spec = oneMode(kind)
		res := mustSim(t, cfg)
		if res.SuppressionPct() >= 10 || res.SuppressionPct() >= cellRes.SuppressionPct() {
			t.Fatalf("%s suppression %.1f%% (cell %.1f%%); footprint effect missing",
				kind, res.SuppressionPct(), cellRes.SuppressionPct())
		}
	}
}

func TestTransientStrikesBurnBudget(t *testing.T) {
	// A transient-heavy mix at threshold 1: every strike is a fresh
	// location, so each one retires a page that never errs again — the
	// budget is exhausted and nothing is suppressed.
	cfg := baseCfg()
	cfg.Spec = faultmodel.Spec{
		MTBCENanos: 3600e9,
		Modes:      []faultmodel.Mode{{Kind: "cell", Weight: 1, Transient: true}},
	}
	cfg.Policy = Policy{Threshold: 1, MaxPages: 32}
	res := mustSim(t, cfg)
	if res.PagesRetired != 32 {
		t.Fatalf("retired %d pages, want the whole budget of 32", res.PagesRetired)
	}
	if res.CEsSuppressed != 0 {
		t.Fatalf("suppressed %d CEs of one-off strikes", res.CEsSuppressed)
	}
}

func TestPageBudgetRespected(t *testing.T) {
	cfg := baseCfg()
	cfg.Policy = Policy{Threshold: 1, MaxPages: 5}
	res := mustSim(t, cfg)
	if res.PagesRetired != 5 {
		t.Fatalf("retired %d pages with a budget of 5 and thousands of candidates", res.PagesRetired)
	}
}

func TestDefaultPageBudget(t *testing.T) {
	cfg := baseCfg()
	cfg.Spec = oneMode("column")
	cfg.Policy = Policy{Threshold: 1, MaxPages: 0} // default 64
	res := mustSim(t, cfg)
	if res.PagesRetired != 64 {
		t.Fatalf("default budget not applied: retired %d pages, want 64", res.PagesRetired)
	}
}

func TestLowerThresholdRetiresEarlier(t *testing.T) {
	strict := baseCfg()
	strict.Policy = Policy{Threshold: 1, MaxPages: 1 << 20}
	lax := baseCfg()
	lax.Policy = Policy{Threshold: 10, MaxPages: 1 << 20}
	s := mustSim(t, strict)
	l := mustSim(t, lax)
	if s.CEsLogged >= l.CEsLogged {
		t.Fatalf("threshold 1 logged %d >= threshold 10 logged %d", s.CEsLogged, l.CEsLogged)
	}
}

func TestLoggedMTBCE(t *testing.T) {
	res := mustSim(t, baseCfg())
	mtbce := res.LoggedMTBCENanos(baseCfg().Hours)
	if mtbce <= 0 {
		t.Fatalf("MTBCE = %d", mtbce)
	}
	want := int64(baseCfg().Hours * 3600 * 1e9 / float64(res.CEsLogged))
	if mtbce != want {
		t.Fatalf("MTBCE = %d, want %d", mtbce, want)
	}
	// No logged CEs: sentinel large value.
	empty := Result{}
	if empty.LoggedMTBCENanos(1) <= int64(3600*1e9) {
		t.Fatal("empty MTBCE not large")
	}
}

func TestTruncationGuard(t *testing.T) {
	cfg := baseCfg()
	cfg.Spec.MTBCENanos = 1e6 // ~3e10 CEs in the year
	res, err := simulate(cfg, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("pathological config not truncated")
	}
	if res.CEsGenerated != 10000 {
		t.Fatalf("generated %d, want the limit", res.CEsGenerated)
	}
	if res := mustSim(t, baseCfg()); res.Truncated {
		t.Fatalf("a year at one CE per hour truncated: %+v", res)
	}
}

// Property: accounting identity and budget hold for arbitrary configs.
func TestQuickInvariants(t *testing.T) {
	mixes := []faultmodel.Spec{mixed(), oneMode("cell"), oneMode("bank")}
	f := func(seed uint64, mixRaw, rateRaw, thrRaw, budgetRaw uint8) bool {
		cfg := Config{
			Seed:   seed,
			Hours:  24 * 30,
			Spec:   mixes[int(mixRaw)%len(mixes)],
			Policy: Policy{Threshold: int(thrRaw % 8), MaxPages: int(budgetRaw%100) + 1},
		}
		cfg.Spec.MTBCENanos = (int64(rateRaw%40) + 1) * 60e9
		res, err := Simulate(cfg)
		if err != nil {
			return false
		}
		if res.CEsGenerated != res.CEsLogged+res.CEsSuppressed {
			return false
		}
		if res.PagesRetired > cfg.Policy.MaxPages {
			return false
		}
		if cfg.Policy.Threshold == 0 && res.PagesRetired != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSimulateYear(b *testing.B) {
	cfg := baseCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
