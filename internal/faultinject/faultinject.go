// Package faultinject is the daemon's EINJ: a deterministic,
// seed-driven fault-injection harness mirroring the source paper's
// node-level methodology (APEI EINJ error injection) at the service
// layer. Named injection sites are compiled into the pipeline — the
// jobs worker body, the simcache fill path, the per-repetition
// simulation loop, and the HTTP handler and decode paths — and each
// site can be armed with one fault kind, a firing probability, an
// optional firing budget and a seed. Disarmed (the default), a site
// costs one atomic load and a nil check; nothing sleeps, allocates or
// locks, so production binaries carry the sites for free.
//
// Fault kinds are named after the EINJ error classes they play the
// role of (see docs/FAULTS.md for the mapping):
//
//	error  — the touched operation fails with a retryable *Error
//	panic  — the touched goroutine panics with a Panic value
//	delay  — the touched operation stalls for DelayNanos
//	cancel — the touched operation observes context.Canceled
//
// Determinism: each site draws from its own splitmix64 stream seeded
// by SiteConfig.Seed (mixed with the site name), so a fixed plan
// yields a fixed per-site fire/no-fire sequence. Concurrent callers of
// the same site consume the stream in arrival order; the *schedule* of
// which caller is faulted may vary across runs, but the hardened
// pipeline retries faulted work with unchanged simulation seeds, so
// end results stay bit-identical regardless.
package faultinject

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a fault class.
type Kind string

// The four fault kinds, named like EINJ error types.
const (
	// KindError makes the site return a retryable *Error.
	KindError Kind = "error"
	// KindPanic makes the site panic with a Panic value.
	KindPanic Kind = "panic"
	// KindDelay makes the site sleep for DelayNanos (honoring ctx).
	KindDelay Kind = "delay"
	// KindCancel makes the site fail with context.Canceled.
	KindCancel Kind = "cancel"
)

// Injection sites compiled into the pipeline. Arm only accepts these
// names, so a plan that drifts from the code fails loudly.
const (
	// SiteJobWorker fires at the start of every job attempt
	// (internal/jobs worker body, inside the recover scope).
	SiteJobWorker = "jobs.worker"
	// SiteCacheFill fires in the baseline-cache fill path
	// (core.ExperimentCache), before the builder runs.
	SiteCacheFill = "simcache.fill"
	// SiteRepetition fires at the start of every simulation
	// repetition (internal/core repeated-run loops).
	SiteRepetition = "core.repetition"
	// SiteHandler fires at the top of every HTTP handler
	// (internal/server), inside the recovery middleware.
	SiteHandler = "server.handler"
	// SiteDecode fires in the request-body decode path
	// (internal/server).
	SiteDecode = "server.decode"
	// SiteClusterShard fires at the start of every cluster shard
	// execution on a worker (internal/cluster), inside the jobs-queue
	// recovery scope, so distributed sweeps can be drilled with
	// worker-side faults.
	SiteClusterShard = "cluster.shard"
	// SiteAdviseIngest fires in the advisor's CE-stream ingest path
	// (internal/server -> internal/advise), after a batch is parsed
	// and validated but before any of it is applied to the per-node
	// estimator state, so a faulted batch is rejected whole and a
	// client retry cannot double-count events.
	SiteAdviseIngest = "advise.ingest"
	// SiteJournalAppend fires in the write-ahead log's append path
	// (internal/journal), before the record is framed and written, so
	// crash drills can prove the pipeline degrades to lower durability
	// — never to a crash — when the log cannot accept a record.
	SiteJournalAppend = "journal.append"
	// SiteJournalSync fires in the write-ahead log's explicit fsync
	// path (internal/journal.Writer.Sync).
	SiteJournalSync = "journal.sync"
	// SiteJournalReplay fires once per segment during recovery replay
	// (internal/journal.Replay), so restart drills can exercise a
	// recovery that itself fails partway.
	SiteJournalReplay = "journal.replay"
	// SiteStoreWrite fires in the on-disk result store's write path
	// (internal/simcache.Store), before the temp file is created, so
	// chaos drills can prove persistence failures only cost durability,
	// never correctness.
	SiteStoreWrite = "store.write"
)

// Sites lists every known injection site, sorted.
func Sites() []string {
	s := []string{SiteJobWorker, SiteCacheFill, SiteRepetition, SiteHandler, SiteDecode, SiteClusterShard, SiteAdviseIngest,
		SiteJournalAppend, SiteJournalSync, SiteJournalReplay, SiteStoreWrite}
	sort.Strings(s)
	return s
}

func knownSite(name string) bool {
	for _, s := range Sites() {
		if s == name {
			return true
		}
	}
	return false
}

// SiteConfig arms one site.
type SiteConfig struct {
	// Kind selects the fault class.
	Kind Kind `json:"kind"`
	// Probability is the per-evaluation chance of firing, in [0, 1].
	Probability float64 `json:"p"`
	// Count bounds how many times the site fires; 0 means unlimited.
	Count uint64 `json:"count,omitempty"`
	// DelayNanos is the stall length for KindDelay (default 10ms).
	DelayNanos int64 `json:"delay_ns,omitempty"`
	// Seed drives the site's private fire/no-fire stream.
	Seed uint64 `json:"seed,omitempty"`
}

func (c SiteConfig) validate(site string) error {
	switch c.Kind {
	case KindError, KindPanic, KindDelay, KindCancel:
	default:
		return fmt.Errorf("faultinject: site %s: unknown kind %q", site, c.Kind)
	}
	if c.Probability < 0 || c.Probability > 1 {
		return fmt.Errorf("faultinject: site %s: probability %g outside [0, 1]", site, c.Probability)
	}
	if c.DelayNanos < 0 {
		return fmt.Errorf("faultinject: site %s: negative delay %d", site, c.DelayNanos)
	}
	return nil
}

// Plan maps site names to their armed configuration.
type Plan map[string]SiteConfig

// Validate checks every site name and configuration.
func (p Plan) Validate() error {
	for site, cfg := range p {
		if !knownSite(site) {
			return fmt.Errorf("faultinject: unknown site %q (known: %v)", site, Sites())
		}
		if err := cfg.validate(site); err != nil {
			return err
		}
	}
	return nil
}

// LoadPlan reads a JSON plan file: an object mapping site names to
// configurations, e.g.
//
//	{"jobs.worker": {"kind": "panic", "p": 0.2, "seed": 42},
//	 "simcache.fill": {"kind": "error", "p": 0.5, "count": 10}}
func LoadPlan(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faultinject: read plan: %w", err)
	}
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faultinject: parse plan %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Error is the failure injected by KindError faults. It is retryable
// by design: like a corrected DRAM error, the fault is transient and
// the same operation succeeds when re-run.
type Error struct {
	// Site is the injection site that fired.
	Site string
	// Kind is the fault class that produced the error.
	Kind Kind
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected %s at %s", e.Kind, e.Site)
}

// Retryable marks the fault transient for the retry machinery in
// internal/jobs and internal/core.
func (e *Error) Retryable() bool { return true }

// Unwrap lets cancel-kind injections satisfy
// errors.Is(err, context.Canceled) so they follow the real
// cancellation path rather than the retry path.
func (e *Error) Unwrap() error {
	if e.Kind == KindCancel {
		return context.Canceled
	}
	return nil
}

// Panic is the value thrown by KindPanic faults, so recovery code and
// tests can tell an injected panic from a genuine one.
type Panic struct {
	// Site is the injection site that fired.
	Site string
}

func (p Panic) String() string { return "faultinject: injected panic at " + p.Site }

// siteState is one armed site's private stream and counters.
type siteState struct {
	cfg SiteConfig

	mu    sync.Mutex
	rng   uint64
	evals uint64
	fired uint64
}

// splitmix64 advances the state and returns the next value.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashString folds a string into a seed (FNV-1a 64).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// roll reports whether the site fires this evaluation.
func (s *siteState) roll() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evals++
	if s.cfg.Count > 0 && s.fired >= s.cfg.Count {
		return false
	}
	// 53-bit uniform in [0, 1).
	u := float64(splitmix64(&s.rng)>>11) / float64(1<<53)
	if u >= s.cfg.Probability {
		return false
	}
	s.fired++
	return true
}

// Injector is an armed set of sites. Construct with NewInjector; most
// callers use the package-level Arm/Disarm/Fire instead.
type Injector struct {
	sites map[string]*siteState
}

// NewInjector validates the plan and builds its per-site streams.
func NewInjector(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{sites: map[string]*siteState{}}
	for site, cfg := range p {
		inj.sites[site] = &siteState{
			cfg: cfg,
			// Mixing the site name into the seed decorrelates sites
			// armed with the same seed.
			rng: cfg.Seed ^ hashString(site),
		}
	}
	return inj, nil
}

// fire evaluates one site, injecting its fault if it rolls.
func (inj *Injector) fire(ctx context.Context, site string) error {
	s, ok := inj.sites[site]
	if !ok || !s.roll() {
		return nil
	}
	switch s.cfg.Kind {
	case KindPanic:
		panic(Panic{Site: site})
	case KindDelay:
		d := time.Duration(s.cfg.DelayNanos)
		if d <= 0 {
			d = 10 * time.Millisecond
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case KindCancel:
		return &Error{Site: site, Kind: KindCancel}
	}
	return &Error{Site: site, Kind: KindError}
}

// active is the armed injector, nil when disarmed. The atomic pointer
// is the whole disarmed cost of an injection site.
var active atomic.Pointer[Injector]

// Arm validates the plan and makes it the active injector, replacing
// any previous one.
func Arm(p Plan) error {
	inj, err := NewInjector(p)
	if err != nil {
		return err
	}
	active.Store(inj)
	return nil
}

// Disarm deactivates injection; every site becomes a no-op again.
func Disarm() { active.Store(nil) }

// Armed reports whether an injector is active.
func Armed() bool { return active.Load() != nil }

// Fire evaluates a site against the active injector. Disarmed, it
// returns nil immediately. Armed, it may return an injected error,
// stall, or panic, per the site's configuration. ctx bounds delay
// faults.
func Fire(ctx context.Context, site string) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	return inj.fire(ctx, site)
}

// SiteStats is one site's counters in a Stats snapshot.
type SiteStats struct {
	Site  string  `json:"site"`
	Kind  Kind    `json:"kind"`
	P     float64 `json:"p"`
	Evals uint64  `json:"evals"`
	Fired uint64  `json:"fired"`
}

// Stats is a snapshot of the harness for /metrics.
type Stats struct {
	Armed bool        `json:"armed"`
	Sites []SiteStats `json:"sites,omitempty"`
}

// Snapshot reports the active injector's per-site counters (zero
// value when disarmed).
func Snapshot() Stats {
	inj := active.Load()
	if inj == nil {
		return Stats{}
	}
	st := Stats{Armed: true}
	for site, s := range inj.sites {
		s.mu.Lock()
		st.Sites = append(st.Sites, SiteStats{
			Site: site, Kind: s.cfg.Kind, P: s.cfg.Probability,
			Evals: s.evals, Fired: s.fired,
		})
		s.mu.Unlock()
	}
	sort.Slice(st.Sites, func(i, j int) bool { return st.Sites[i].Site < st.Sites[j].Site })
	return st
}

// IsInjected reports whether err originates from an injected fault.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}
