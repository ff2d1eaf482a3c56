package faultinject

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fireSeq collects the fire/no-fire pattern of n evaluations on a
// fresh injector built from cfg.
func fireSeq(t *testing.T, cfg SiteConfig, site string, n int) []bool {
	t.Helper()
	inj, err := NewInjector(Plan{site: cfg})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = inj.fire(context.Background(), site) != nil
	}
	return out
}

func TestDisarmedFireIsNoOp(t *testing.T) {
	Disarm()
	if Armed() {
		t.Fatal("armed after Disarm")
	}
	for _, site := range Sites() {
		if err := Fire(context.Background(), site); err != nil {
			t.Fatalf("disarmed fire at %s: %v", site, err)
		}
	}
	if s := Snapshot(); s.Armed || len(s.Sites) != 0 {
		t.Fatalf("disarmed snapshot %+v", s)
	}
}

func TestDeterministicStream(t *testing.T) {
	cfg := SiteConfig{Kind: KindError, Probability: 0.3, Seed: 7}
	a := fireSeq(t, cfg, SiteJobWorker, 200)
	b := fireSeq(t, cfg, SiteJobWorker, 200)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at evaluation %d", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == 200 {
		t.Fatalf("p=0.3 fired %d/200 times", fired)
	}
	// A different seed must yield a different pattern.
	cfg.Seed = 8
	c := fireSeq(t, cfg, SiteJobWorker, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed change did not change the stream")
	}
}

func TestProbabilityExtremes(t *testing.T) {
	for _, fired := range fireSeq(t, SiteConfig{Kind: KindError, Probability: 0}, SiteDecode, 100) {
		if fired {
			t.Fatal("p=0 fired")
		}
	}
	for _, fired := range fireSeq(t, SiteConfig{Kind: KindError, Probability: 1}, SiteDecode, 100) {
		if !fired {
			t.Fatal("p=1 skipped")
		}
	}
}

func TestCountBudgetExhausts(t *testing.T) {
	seq := fireSeq(t, SiteConfig{Kind: KindError, Probability: 1, Count: 3}, SiteCacheFill, 10)
	fired := 0
	for _, f := range seq {
		if f {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("count=3 fired %d times", fired)
	}
	if !seq[0] || !seq[1] || !seq[2] || seq[3] {
		t.Fatalf("budget not consumed front-first: %v", seq)
	}
}

func TestErrorKindIsRetryable(t *testing.T) {
	inj, err := NewInjector(Plan{SiteJobWorker: {Kind: KindError, Probability: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ferr := inj.fire(context.Background(), SiteJobWorker)
	var fe *Error
	if !errors.As(ferr, &fe) || fe.Site != SiteJobWorker || !fe.Retryable() {
		t.Fatalf("injected error %v (%T)", ferr, ferr)
	}
	if errors.Is(ferr, context.Canceled) {
		t.Fatal("error kind should not read as cancellation")
	}
}

func TestCancelKindReadsAsCanceled(t *testing.T) {
	inj, err := NewInjector(Plan{SiteHandler: {Kind: KindCancel, Probability: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ferr := inj.fire(context.Background(), SiteHandler)
	if !errors.Is(ferr, context.Canceled) {
		t.Fatalf("cancel kind: %v", ferr)
	}
}

func TestPanicKindThrowsPanicValue(t *testing.T) {
	inj, err := NewInjector(Plan{SiteRepetition: {Kind: KindPanic, Probability: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		p, ok := r.(Panic)
		if !ok || p.Site != SiteRepetition {
			t.Fatalf("recovered %v (%T)", r, r)
		}
	}()
	_ = inj.fire(context.Background(), SiteRepetition)
	t.Fatal("panic kind did not panic")
}

func TestDelayKindHonorsContext(t *testing.T) {
	inj, err := NewInjector(Plan{SiteHandler: {
		Kind: KindDelay, Probability: 1, DelayNanos: int64(10 * time.Second),
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	ferr := inj.fire(ctx, SiteHandler)
	if !errors.Is(ferr, context.DeadlineExceeded) {
		t.Fatalf("delay under expired ctx: %v", ferr)
	}
	if time.Since(start) > time.Second {
		t.Fatal("delay ignored the context deadline")
	}
}

func TestArmSnapshotDisarm(t *testing.T) {
	t.Cleanup(Disarm)
	if err := Arm(Plan{SiteJobWorker: {Kind: KindError, Probability: 1, Count: 2}}); err != nil {
		t.Fatal(err)
	}
	if !Armed() {
		t.Fatal("not armed")
	}
	for i := 0; i < 5; i++ {
		_ = Fire(context.Background(), SiteJobWorker)
	}
	s := Snapshot()
	if !s.Armed || len(s.Sites) != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	if got := s.Sites[0]; got.Site != SiteJobWorker || got.Evals != 5 || got.Fired != 2 {
		t.Fatalf("site stats %+v", got)
	}
	Disarm()
	if err := Fire(context.Background(), SiteJobWorker); err != nil {
		t.Fatalf("fire after disarm: %v", err)
	}
}

func TestPlanValidation(t *testing.T) {
	cases := map[string]Plan{
		"unknown site": {"nonesuch.site": {Kind: KindError, Probability: 1}},
		"unknown kind": {SiteJobWorker: {Kind: "meltdown", Probability: 1}},
		"p too big":    {SiteJobWorker: {Kind: KindError, Probability: 1.5}},
		"p negative":   {SiteJobWorker: {Kind: KindError, Probability: -0.1}},
		"bad delay":    {SiteJobWorker: {Kind: KindDelay, Probability: 1, DelayNanos: -1}},
	}
	for name, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
		if err := Arm(p); err == nil {
			Disarm()
			t.Errorf("%s: armed", name)
		}
	}
}

func TestLoadPlan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "faults.json")
	body := `{
  "jobs.worker":   {"kind": "panic", "p": 0.2, "seed": 42},
  "simcache.fill": {"kind": "error", "p": 0.5, "count": 10},
  "server.handler": {"kind": "delay", "p": 0.1, "delay_ns": 1000000}
}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || p[SiteJobWorker].Kind != KindPanic || p[SiteCacheFill].Count != 10 {
		t.Fatalf("plan %+v", p)
	}
	if _, err := LoadPlan(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"jobs.worker": {"kind": "error", "p": 2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(bad); err == nil {
		t.Fatal("invalid plan loaded")
	}
	unknown := filepath.Join(dir, "unknown.json")
	if err := os.WriteFile(unknown, []byte(`{"jobs.worker": {"kindz": "error"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(unknown); err == nil {
		t.Fatal("unknown field accepted")
	}
	trailing := filepath.Join(dir, "trailing.json")
	if err := os.WriteFile(trailing, []byte(body+"\n}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(trailing); err == nil {
		t.Fatal("plan followed by trailing data accepted")
	}
}

// TestFiringSchedulePinned pins one seeded site's stream: the state
// the site name and seed mix into, and the fire/no-fire pattern of its
// first 64 rolls at p = 0.5 (bit i set when roll i fired). Any change
// to the site hash or the generator moves every chaos drill's
// schedule, so it must show here first.
func TestFiringSchedulePinned(t *testing.T) {
	cfg := SiteConfig{Kind: KindError, Probability: 0.5, Seed: 42}
	inj, err := NewInjector(Plan{SiteJobWorker: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inj.sites[SiteJobWorker].stream, uint64(0x4573318be1bb9bb9); got != want {
		t.Fatalf("site stream seeded at %#016x, want %#016x", got, want)
	}
	var mask uint64
	for i, fired := range fireSeq(t, cfg, SiteJobWorker, 64) {
		if fired {
			mask |= 1 << i
		}
	}
	if want := uint64(0xc50e16dc62b10eec); mask != want {
		t.Fatalf("first 64 rolls %#016x, want %#016x", mask, want)
	}
}
