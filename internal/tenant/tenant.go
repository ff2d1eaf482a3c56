// Package tenant enforces per-tenant service quotas for cesimd: a
// token-bucket request rate, an in-flight job cap, and a result-store
// disk budget. Tenants are named by the X-Tenant request header (the
// empty name is the shared default tenant); limits come from a default
// plus per-tenant overrides.
//
// The package deliberately owns no clock of its own: Config.Now is
// injectable so refill arithmetic is exact under test, and the zero
// value falls back to time.Now for production. Rejections carry a
// computed Retry-After so the HTTP layer can answer 429 with a useful
// hint instead of a bare refusal, matching the shed discipline the
// daemon already applies to global overload.
package tenant

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Limits bounds one tenant. Zero or negative fields are unlimited.
type Limits struct {
	// RatePerSec is the sustained request admission rate.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the token bucket size; defaults to max(1, RatePerSec)
	// when a rate is set.
	Burst int `json:"burst,omitempty"`
	// MaxJobs caps the tenant's in-flight (queued or running) jobs.
	MaxJobs int `json:"max_jobs,omitempty"`
	// DiskBytes caps the tenant's result-store footprint. Overage skips
	// persisting new results — the job still succeeds, it just is not
	// cached durably.
	DiskBytes int64 `json:"disk_bytes,omitempty"`
}

// Sentinel rejection causes, matched with errors.Is.
var (
	// ErrRateLimited reports an empty token bucket.
	ErrRateLimited = errors.New("tenant: rate limited")
	// ErrJobQuota reports the in-flight job cap.
	ErrJobQuota = errors.New("tenant: job quota exceeded")
)

// LimitError is the typed rejection: which tenant, why, and how long
// until a retry can succeed (zero when waiting does not help, as with
// the job cap — the client must finish work, not wait wall time).
type LimitError struct {
	Tenant     string
	RetryAfter time.Duration
	cause      error
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("%v (tenant=%q retry-after=%s)", e.cause, e.Tenant, e.RetryAfter)
}

// Unwrap exposes the sentinel cause to errors.Is.
func (e *LimitError) Unwrap() error { return e.cause }

// Stats is one tenant's counter snapshot.
type Stats struct {
	Tenant      string  `json:"tenant"`
	InFlight    int     `json:"in_flight"`
	Admitted    uint64  `json:"admitted"`
	RateLimited uint64  `json:"rate_limited"`
	JobLimited  uint64  `json:"job_limited"`
	DiskSkips   uint64  `json:"disk_skips"`
	Tokens      float64 `json:"tokens"`
}

// Config builds a Registry.
type Config struct {
	// Defaults applies to every tenant without an override.
	Defaults Limits
	// Overrides maps tenant names to their specific limits.
	Overrides map[string]Limits
	// Now supplies the clock; nil selects time.Now.
	Now func() time.Time
}

// state is one tenant's live bucket and counters.
type state struct {
	tokens      float64
	last        time.Time
	inFlight    int
	admitted    uint64
	rateLimited uint64
	jobLimited  uint64
	diskSkips   uint64
}

// Registry tracks every tenant seen so far. Construct with New.
type Registry struct {
	mu        sync.Mutex
	defaults  Limits
	overrides map[string]Limits
	states    map[string]*state
	now       func() time.Time
}

// New builds a Registry.
func New(cfg Config) *Registry {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	ov := make(map[string]Limits, len(cfg.Overrides))
	for k, v := range cfg.Overrides {
		ov[k] = v
	}
	return &Registry{
		defaults:  cfg.Defaults,
		overrides: ov,
		states:    map[string]*state{},
		now:       now,
	}
}

// limitsFor resolves a tenant's limits.
func (r *Registry) limitsFor(tenant string) Limits {
	if l, ok := r.overrides[tenant]; ok {
		return l
	}
	return r.defaults
}

// stateFor returns (creating if needed) a tenant's state. r.mu held.
func (r *Registry) stateFor(tenant string, l Limits) *state {
	s, ok := r.states[tenant]
	if !ok {
		s = &state{tokens: float64(burst(l)), last: r.now()}
		r.states[tenant] = s
	}
	return s
}

// burst resolves the effective bucket size.
func burst(l Limits) int {
	if l.Burst > 0 {
		return l.Burst
	}
	if l.RatePerSec >= 1 {
		return int(l.RatePerSec)
	}
	return 1
}

// refill advances the bucket to now. r.mu held.
func refill(s *state, l Limits, now time.Time) {
	if l.RatePerSec <= 0 {
		return
	}
	dt := now.Sub(s.last).Seconds()
	if dt > 0 {
		s.tokens += dt * l.RatePerSec
		if max := float64(burst(l)); s.tokens > max {
			s.tokens = max
		}
	}
	s.last = now
}

// Admit applies the tenant's rate and job limits to one submission.
// On success it returns a release function the caller must invoke when
// the job leaves flight (terminal state or submit failure downstream).
// On rejection it returns a *LimitError wrapping ErrRateLimited or
// ErrJobQuota.
func (r *Registry) Admit(tenant string) (release func(), err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.limitsFor(tenant)
	s := r.stateFor(tenant, l)
	now := r.now()
	refill(s, l, now)

	if l.RatePerSec > 0 && s.tokens < 1 {
		s.rateLimited++
		wait := time.Duration((1 - s.tokens) / l.RatePerSec * float64(time.Second))
		if wait < time.Second {
			wait = time.Second // floor: Retry-After is whole seconds on the wire
		}
		return nil, &LimitError{Tenant: tenant, RetryAfter: wait, cause: ErrRateLimited}
	}
	if l.MaxJobs > 0 && s.inFlight >= l.MaxJobs {
		s.jobLimited++
		return nil, &LimitError{Tenant: tenant, cause: ErrJobQuota}
	}
	if l.RatePerSec > 0 {
		s.tokens--
	}
	s.inFlight++
	s.admitted++
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			if s.inFlight > 0 {
				s.inFlight--
			}
		})
	}, nil
}

// DiskAllowed reports whether persisting addBytes more for the tenant
// stays inside its disk quota, given its current store footprint. A
// false answer is counted as a skip — the caller proceeds without
// persisting.
func (r *Registry) DiskAllowed(tenant string, usedBytes, addBytes int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.limitsFor(tenant)
	if l.DiskBytes <= 0 || usedBytes+addBytes <= l.DiskBytes {
		return true
	}
	r.stateFor(tenant, l).diskSkips++
	return false
}

// StatsAll snapshots every tenant seen so far, sorted by name so the
// /metrics rendering is stable.
func (r *Registry) StatsAll() []Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.states))
	for name := range r.states {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Stats, 0, len(names))
	for _, name := range names {
		s := r.states[name]
		l := r.limitsFor(name)
		refill(s, l, r.now())
		out = append(out, Stats{
			Tenant:      name,
			InFlight:    s.inFlight,
			Admitted:    s.admitted,
			RateLimited: s.rateLimited,
			JobLimited:  s.jobLimited,
			DiskSkips:   s.diskSkips,
			Tokens:      s.tokens,
		})
	}
	return out
}
