package tenant

import (
	"errors"
	"testing"
	"time"
)

// clock is a hand-advanced test clock.
type clock struct{ t time.Time }

func (c *clock) now() time.Time          { return c.t }
func (c *clock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newClock() *clock {
	return &clock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// newOnClock is New reading the clock now instead of time.Now.
func newOnClock(cfg Config, now func() time.Time) *Registry {
	r := New(cfg)
	r.now = now
	return r
}

func TestRateLimitAndRefill(t *testing.T) {
	c := newClock()
	r := newOnClock(Config{Defaults: Limits{RatePerSec: 1, Burst: 2}}, c.now)
	// Burst of 2 admits twice, then rejects with a Retry-After.
	for i := 0; i < 2; i++ {
		rel, err := r.Admit("acme")
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		rel()
	}
	_, err := r.Admit("acme")
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("third admit: %v, want rate limited", err)
	}
	var le *LimitError
	if !errors.As(err, &le) || le.RetryAfter < time.Second {
		t.Fatalf("limit error missing retry-after: %v", err)
	}
	// One second refills one token.
	c.advance(time.Second)
	if rel, err := r.Admit("acme"); err != nil {
		t.Fatalf("admit after refill: %v", err)
	} else {
		rel()
	}
	st := r.StatsAll()
	if len(st) != 1 || st[0].Admitted != 3 || st[0].RateLimited != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestJobQuotaReleasedOnCompletion(t *testing.T) {
	r := newOnClock(Config{Defaults: Limits{MaxJobs: 1}}, newClock().now)
	rel, err := r.Admit("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Admit("t"); !errors.Is(err, ErrJobQuota) {
		t.Fatalf("second in-flight admit: %v, want job quota", err)
	}
	rel()
	rel() // double release must not underflow
	rel2, err := r.Admit("t")
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	rel2()
	if st := r.StatsAll(); st[0].InFlight != 0 || st[0].JobLimited != 1 {
		t.Fatalf("stats: %+v", st[0])
	}
}

func TestUnlimitedDefault(t *testing.T) {
	r := newOnClock(Config{}, newClock().now)
	for i := 0; i < 100; i++ {
		rel, err := r.Admit("")
		if err != nil {
			t.Fatalf("unlimited admit %d: %v", i, err)
		}
		rel()
	}
}

func TestDiskQuota(t *testing.T) {
	r := newOnClock(Config{Defaults: Limits{DiskBytes: 100}}, newClock().now)
	if !r.DiskAllowed("t", 50, 50) {
		t.Fatal("exact fit refused")
	}
	if r.DiskAllowed("t", 50, 51) {
		t.Fatal("overage allowed")
	}
	if !r.DiskAllowed("t", 0, 100) {
		t.Fatal("full budget refused")
	}
	if st := r.StatsAll(); st[0].DiskSkips != 1 {
		t.Fatalf("disk skips: %+v", st[0])
	}
}

func TestStatsSortedByTenant(t *testing.T) {
	r := newOnClock(Config{}, newClock().now)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		rel, err := r.Admit(name)
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	st := r.StatsAll()
	if len(st) != 3 || st[0].Tenant != "alpha" || st[1].Tenant != "mid" || st[2].Tenant != "zeta" {
		t.Fatalf("stats order: %+v", st)
	}
}
