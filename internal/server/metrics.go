package server

import (
	"sync"
	"time"

	"repro/internal/advise"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/simcache"
	"repro/internal/tenant"
)

// histBoundsMs are the upper bounds (milliseconds) of the latency
// histogram buckets, spanning cache-hit lookups (<1 ms) to paper-scale
// sweeps (minutes); the implicit last bucket is +Inf.
var histBoundsMs = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 60000}

// hist is a fixed-bucket latency histogram. Guarded by Metrics.mu.
type hist struct {
	counts []uint64 // len(histBoundsMs)+1; last is +Inf
	n      uint64
	sumMs  float64
	maxMs  float64
}

func newHist() *hist {
	return &hist{counts: make([]uint64, len(histBoundsMs)+1)}
}

func (h *hist) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(histBoundsMs) && ms > histBoundsMs[i] {
		i++
	}
	h.counts[i]++
	h.n++
	h.sumMs += ms
	if ms > h.maxMs {
		h.maxMs = ms
	}
}

// HistBucket is one histogram bucket in a snapshot. LeMs <= 0 marks
// the +Inf bucket.
type HistBucket struct {
	LeMs  float64 `json:"le_ms,omitempty"`
	Count uint64  `json:"count"`
}

// HistSnapshot summarizes one latency histogram.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	MeanMs  float64      `json:"mean_ms"`
	MaxMs   float64      `json:"max_ms"`
	Buckets []HistBucket `json:"buckets"`
}

func (h *hist) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.n, MaxMs: h.maxMs}
	if h.n > 0 {
		s.MeanMs = h.sumMs / float64(h.n)
	}
	s.Buckets = make([]HistBucket, len(h.counts))
	for i, c := range h.counts {
		b := HistBucket{Count: c}
		if i < len(histBoundsMs) {
			b.LeMs = histBoundsMs[i]
		}
		s.Buckets[i] = b
	}
	return s
}

// Stage labels for per-stage latency histograms.
const (
	// StageHTTP is wall time per HTTP request (handler only — job
	// execution is measured by the other stages).
	StageHTTP = "http"
	// StageBaseline is the baseline-cache lookup-or-build step of a
	// simulate job: ~free on a hit, the full trace expansion plus
	// baseline simulation on a miss.
	StageBaseline = "baseline"
	// StageScenarios is the CE-scenario repetitions of a simulate job.
	StageScenarios = "scenarios"
	// StageJob is a job's total execution time, any kind.
	StageJob = "job"
)

// Metrics aggregates the daemon's counters and histograms; all methods
// are safe for concurrent use. Queue and cache gauges are read live at
// snapshot time rather than duplicated here.
type Metrics struct {
	start time.Time

	mu       sync.Mutex
	requests map[string]uint64 // by route pattern
	statuses map[string]uint64 // by status class ("2xx", ...)
	stages   map[string]*hist

	shedRequests     uint64
	handlerPanics    uint64
	cacheBypasses    uint64
	tenantRejections uint64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		start:    time.Now(),
		requests: map[string]uint64{},
		statuses: map[string]uint64{},
		stages:   map[string]*hist{},
	}
}

// Observe records one latency sample for a stage.
func (m *Metrics) Observe(stage string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.stages[stage]
	if !ok {
		h = newHist()
		m.stages[stage] = h
	}
	h.observe(d)
}

// Shed counts one submission rejected by admission control.
func (m *Metrics) Shed() {
	m.mu.Lock()
	m.shedRequests++
	m.mu.Unlock()
}

// HandlerPanic counts one panic recovered by the handler middleware.
func (m *Metrics) HandlerPanic() {
	m.mu.Lock()
	m.handlerPanics++
	m.mu.Unlock()
}

// CacheBypass counts one baseline built directly because the cache
// failed.
func (m *Metrics) CacheBypass() {
	m.mu.Lock()
	m.cacheBypasses++
	m.mu.Unlock()
}

// TenantReject counts one submission refused by per-tenant limits
// (rate or job quota; answered 429 with Retry-After).
func (m *Metrics) TenantReject() {
	m.mu.Lock()
	m.tenantRejections++
	m.mu.Unlock()
}

// Request records one served HTTP request.
func (m *Metrics) Request(route string, status int, d time.Duration) {
	class := "2xx"
	switch {
	case status >= 500:
		class = "5xx"
	case status >= 400:
		class = "4xx"
	case status >= 300:
		class = "3xx"
	}
	m.mu.Lock()
	m.requests[route]++
	m.statuses[class]++
	h, ok := m.stages[StageHTTP]
	if !ok {
		h = newHist()
		m.stages[StageHTTP] = h
	}
	h.observe(d)
	m.mu.Unlock()
}

// Snapshot is the JSON document served on /metrics.
type Snapshot struct {
	UptimeSeconds float64                   `json:"uptime_s"`
	Requests      map[string]uint64         `json:"requests"`
	Statuses      map[string]uint64         `json:"statuses"`
	Latency       map[string]HistSnapshot   `json:"latency"`
	Jobs          jobs.Stats                `json:"jobs"`
	Cache         core.ExperimentCacheStats `json:"cache"`
	// ShedRequests counts submissions rejected by admission control.
	ShedRequests uint64 `json:"shed_requests"`
	// HandlerPanics counts panics recovered at the HTTP layer.
	HandlerPanics uint64 `json:"handler_panics"`
	// CacheBypasses counts baselines built directly because the cache
	// failed.
	CacheBypasses uint64 `json:"cache_bypasses"`
	// Advisor reports the mitigation advisor's ingest/estimator/cache
	// gauges, when mounted (docs/ADVISOR.md).
	Advisor *advise.Stats `json:"advisor,omitempty"`
	// TenantRejections counts submissions refused by per-tenant limits.
	TenantRejections uint64 `json:"tenant_rejections"`
	// Store reports the durable result store, when configured
	// (docs/DURABILITY.md): entry/byte gauges, hit/miss/quarantine
	// counters and per-tenant usage.
	Store *simcache.StoreStats `json:"store,omitempty"`
	// Tenants reports per-tenant admission and quota counters, sorted
	// by tenant name.
	Tenants []tenant.Stats `json:"tenants,omitempty"`
	// Journal reports the job WAL writer, when configured.
	Journal *journal.Stats `json:"journal,omitempty"`
	// Faults reports fault-injection counters while a plan is armed.
	Faults *faultinject.Stats `json:"faults,omitempty"`
}

// Extras carries the durable-tier gauges read live at snapshot time;
// any field may be nil.
type Extras struct {
	Store   *simcache.Store
	Tenants *tenant.Registry
	Journal *journal.Writer
}

// Snapshot captures all counters plus live queue, cache and advisor
// gauges. q, c and adv may be nil (their sections stay zero or absent).
func (m *Metrics) Snapshot(q *jobs.Queue, c *core.ExperimentCache, adv *advise.Service, x Extras) Snapshot {
	s := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      map[string]uint64{},
		Statuses:      map[string]uint64{},
		Latency:       map[string]HistSnapshot{},
	}
	m.mu.Lock()
	for k, v := range m.requests {
		s.Requests[k] = v
	}
	for k, v := range m.statuses {
		s.Statuses[k] = v
	}
	for k, h := range m.stages {
		s.Latency[k] = h.snapshot()
	}
	s.ShedRequests = m.shedRequests
	s.HandlerPanics = m.handlerPanics
	s.CacheBypasses = m.cacheBypasses
	s.TenantRejections = m.tenantRejections
	m.mu.Unlock()
	if q != nil {
		s.Jobs = q.Stats()
	}
	if c != nil {
		s.Cache = c.Stats()
	}
	if adv != nil {
		as := adv.Stats()
		s.Advisor = &as
	}
	if x.Store != nil {
		ss := x.Store.Stats()
		s.Store = &ss
	}
	if x.Tenants != nil {
		s.Tenants = x.Tenants.StatsAll()
	}
	if x.Journal != nil {
		js := x.Journal.Stats()
		s.Journal = &js
	}
	if faultinject.Armed() {
		fs := faultinject.Snapshot()
		s.Faults = &fs
	}
	return s
}
