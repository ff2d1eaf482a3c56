package server

import (
	"maps"
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

// hist is a fixed-bucket latency histogram. Guarded by Server.mu.
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

// observeLocked records one latency sample for a stage. s.mu must be
// held.
func (s *Server) observeLocked(stage string, d time.Duration) {
	h, ok := s.stages[stage]
	if !ok {
		h = newHist()
		s.stages[stage] = h
	}
	h.observe(d)
}

// observe records one latency sample for a stage.
func (s *Server) observe(stage string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observeLocked(stage, d)
}

// count adds one to c, a counter of s.st.
func (s *Server) count(c *uint64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// request records one served HTTP request.
func (s *Server) request(route string, status int, d time.Duration) {
	class := "2xx"
	switch {
	case status >= 500:
		class = "5xx"
	case status >= 400:
		class = "4xx"
	case status >= 300:
		class = "3xx"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Requests[route]++
	s.st.Statuses[class]++
	s.observeLocked(StageHTTP, d)
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

// snapshot captures all counters plus the live gauges of the queue, the
// cache and every optional section configured.
func (s *Server) snapshot() Snapshot {
	s.mu.Lock()
	st := s.st
	st.Requests, st.Statuses = maps.Clone(s.st.Requests), maps.Clone(s.st.Statuses)
	st.Latency = make(map[string]HistSnapshot, len(s.stages))
	for k, h := range s.stages {
		st.Latency[k] = h.snapshot()
	}
	s.mu.Unlock()
	st.UptimeSeconds = time.Since(s.start).Seconds()
	st.Jobs = s.cfg.Queue.Stats()
	st.Cache = s.cfg.Cache.Stats()
	if adv := s.cfg.Advisor; adv != nil {
		as := adv.Stats()
		st.Advisor = &as
	}
	if store := s.cfg.ResultStore; store != nil {
		ss := store.Stats()
		st.Store = &ss
	}
	if s.cfg.Tenants != nil {
		st.Tenants = s.cfg.Tenants.StatsAll()
	}
	if wal := s.cfg.Journal; wal != nil {
		js := wal.Stats()
		st.Journal = &js
	}
	if faultinject.Armed() {
		fs := faultinject.Snapshot()
		st.Faults = &fs
	}
	return st
}
