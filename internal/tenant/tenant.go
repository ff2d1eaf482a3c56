// Package tenant enforces per-tenant service quotas for cesimd: a
// token-bucket request rate, an in-flight job cap, and a result-store
// disk budget. Tenants are named by the X-Tenant request header (the
// empty name is the shared default tenant); every tenant gets the same
// limits, each with its own bucket and counters.
//
// The registry reads time.Now through an unexported field, so the
// package's tests make refill arithmetic exact. Rejections carry a
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
	// Defaults applies to every tenant.
	Defaults Limits
}

// state is one tenant's live bucket and counters: its snapshot, and
// the time the bucket was last refilled.
type state struct {
	Stats
	last time.Time
}

// Registry tracks every tenant seen so far. Construct with New.
type Registry struct {
	mu     sync.Mutex
	limits Limits
	states map[string]*state
	now    func() time.Time
}

// New builds a Registry.
func New(cfg Config) *Registry {
	return &Registry{
		limits: cfg.Defaults,
		states: map[string]*state{},
		now:    time.Now,
	}
}

// stateFor returns (creating if needed) a tenant's state. r.mu held.
func (r *Registry) stateFor(tenant string) *state {
	s, ok := r.states[tenant]
	if !ok {
		s = &state{Stats: Stats{Tenant: tenant, Tokens: float64(burst(r.limits))}, last: r.now()}
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
		s.Tokens += dt * l.RatePerSec
		if max := float64(burst(l)); s.Tokens > max {
			s.Tokens = max
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
	l := r.limits
	s := r.stateFor(tenant)
	now := r.now()
	refill(s, l, now)

	if l.RatePerSec > 0 && s.Tokens < 1 {
		s.RateLimited++
		wait := time.Duration((1 - s.Tokens) / l.RatePerSec * float64(time.Second))
		if wait < time.Second {
			wait = time.Second // floor: Retry-After is whole seconds on the wire
		}
		return nil, &LimitError{Tenant: tenant, RetryAfter: wait, cause: ErrRateLimited}
	}
	if l.MaxJobs > 0 && s.InFlight >= l.MaxJobs {
		s.JobLimited++
		return nil, &LimitError{Tenant: tenant, cause: ErrJobQuota}
	}
	if l.RatePerSec > 0 {
		s.Tokens--
	}
	s.InFlight++
	s.Admitted++
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			if s.InFlight > 0 {
				s.InFlight--
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
	if l := r.limits.DiskBytes; l <= 0 || usedBytes+addBytes <= l {
		return true
	}
	r.stateFor(tenant).DiskSkips++
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
		refill(s, r.limits, r.now())
		out = append(out, s.Stats)
	}
	return out
}
