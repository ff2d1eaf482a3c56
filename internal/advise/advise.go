// Package advise is the online mitigation advisor: it closes the loop
// from the paper's offline analysis ("pick a logging mode and keep
// MTBCE(node) above a budget-derived floor") to a streaming service
// that watches per-node correctable-error streams and answers policy
// questions continuously.
//
// Three layers, mounted on the cesimd HTTP server (docs/ADVISOR.md):
//
//	ingest     POST /v1/advise/ingest — batched NDJSON CE events per
//	           (tenant, node), validated whole, admitted through the
//	           server's shed watermark, applied atomically;
//	estimation per-(tenant, node) online state: a decayed-window MTBCE
//	           estimator (Estimator) and a fault-mode classifier over
//	           the address footprint (Footprint), both deterministic
//	           and order-independent under batch merges;
//	policy     GET /v1/advise/recommend — composes predict.Budget
//	           (minimum-MTBCE floor per logging mode), retire
//	           (retire-worthiness of the classified fault mode) and
//	           due (Daly checkpoint retune from the DUE-rate
//	           estimate), answered from a bounded cache keyed by the
//	           quantized estimator state.
//
// Determinism contract: ingesting the same event batches in any batch
// order yields byte-identical recommend responses. The cache cannot
// break this because policy evaluation is a pure function of the
// quantized state and cached entries are exactly that function's
// value; a disabled or bypassed cache recomputes the identical bytes.
package advise

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/memo"
)

// Event is one correctable-error observation on the wire: a single
// NDJSON line of the ingest batch body.
type Event struct {
	// Tenant and Node identify the reporting stream.
	Tenant string `json:"tenant"`
	Node   string `json:"node"`
	// TimeNanos is the event timestamp (Unix nanoseconds, > 0).
	TimeNanos int64 `json:"ts_ns"`
	// Addr is the corrected physical address.
	Addr uint64 `json:"addr"`
	// Bank is the DRAM bank the address decodes to (optional).
	Bank int `json:"bank,omitempty"`
	// Syndrome is the ECC syndrome (optional, logged through only).
	Syndrome string `json:"synd,omitempty"`
}

// maxNameLen bounds tenant and node identifiers.
const maxNameLen = 64

// Validate reports schema errors in one event.
func (ev Event) Validate() error {
	if err := validName("tenant", ev.Tenant); err != nil {
		return err
	}
	if err := validName("node", ev.Node); err != nil {
		return err
	}
	if ev.TimeNanos <= 0 {
		return fmt.Errorf("advise: ts_ns must be positive, got %d", ev.TimeNanos)
	}
	if ev.Bank < 0 {
		return fmt.Errorf("advise: bank must be non-negative, got %d", ev.Bank)
	}
	if len(ev.Syndrome) > maxNameLen {
		return fmt.Errorf("advise: synd longer than %d bytes", maxNameLen)
	}
	return nil
}

func validName(field, v string) error {
	if v == "" {
		return fmt.Errorf("advise: %s is required", field)
	}
	if len(v) > maxNameLen {
		return fmt.Errorf("advise: %s longer than %d bytes", field, maxNameLen)
	}
	if strings.ContainsAny(v, " \t\r\n\"") {
		return fmt.Errorf("advise: %s contains whitespace or quotes", field)
	}
	return nil
}

// Config wires a Service.
type Config struct {
	// Store bounds the estimator state.
	Store StoreConfig
	// MaxBatchEvents bounds one ingest batch (default 10000).
	MaxBatchEvents int
	// CacheEntries bounds the recommendation cache; 0 selects the
	// default (1024), negative disables caching (every recommend
	// recomputes — bit-identical, just slower, like a simulation whose
	// baseline bypasses a failing cache).
	CacheEntries int
	// Defaults fills scenario parameters the recommend query omits.
	Defaults ScenarioDefaults
}

// ScenarioDefaults are the recommend endpoint's fallback scenario.
type ScenarioDefaults struct {
	Workload   string  `json:"workload"`
	Nodes      int     `json:"nodes"`
	BudgetPct  float64 `json:"budget_pct"`
	GiBPerNode float64 `json:"gib_per_node"`
}

func (c Config) withDefaults() Config {
	c.Store = c.Store.withDefaults()
	if c.MaxBatchEvents <= 0 {
		c.MaxBatchEvents = 10000
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.Defaults.Workload == "" {
		c.Defaults.Workload = "lulesh"
	}
	if c.Defaults.Nodes <= 0 {
		c.Defaults.Nodes = 16384
	}
	if c.Defaults.BudgetPct <= 0 {
		c.Defaults.BudgetPct = 10
	}
	if c.Defaults.GiBPerNode <= 0 {
		c.Defaults.GiBPerNode = 700
	}
	return c
}

// Service is the advisor subsystem: store + recommendation cache.
// Mount its handlers through internal/server (Config.Advisor).
type Service struct {
	cfg   Config
	store *Store

	// cache holds policy evaluations by cacheKey: an internal/memo LRU
	// of CacheEntries entries at unit cost, nil when caching is
	// disabled. Its hit counter is the advisor's.
	cache    *memo.Cache[string, *Recommendation]
	misses   atomic.Uint64
	bypasses atomic.Uint64
	rejects  atomic.Uint64
}

// NewService builds the advisor.
func NewService(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{cfg: cfg, store: NewStore(cfg.Store)}
	if cfg.CacheEntries > 0 {
		s.cache = memo.New[string, *Recommendation](int64(cfg.CacheEntries), nil)
	}
	return s
}

// Store exposes the estimator state (tests and cluster tooling).
func (s *Service) Store() *Store { return s.store }

// cacheGet looks up a cached policy evaluation and reports the lookup's
// outcome, counting it: "hit" (the only one with a non-nil result),
// "miss", or "bypass" when caching is disabled.
func (s *Service) cacheGet(key string) (*Recommendation, string) {
	if s.cache == nil {
		s.bypasses.Add(1)
		return nil, "bypass"
	}
	if rec, ok := s.cache.Get(key); ok {
		return rec, "hit"
	}
	s.misses.Add(1)
	return nil, "miss"
}

// Stats is the advisor's /metrics section.
type Stats struct {
	Store StoreStats `json:"store"`
	// CacheEntries is the live recommendation-cache size.
	CacheEntries int `json:"cache_entries"`
	// RecommendHits/Misses/Bypasses count recommendation-cache
	// outcomes; bypasses are recomputations with caching disabled.
	RecommendHits     uint64 `json:"recommend_hits"`
	RecommendMisses   uint64 `json:"recommend_misses"`
	RecommendBypasses uint64 `json:"recommend_bypasses"`
	// IngestRejects counts batches rejected by validation, limits or
	// injected faults.
	IngestRejects uint64 `json:"ingest_rejects"`
}

// Stats snapshots the advisor counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Store:             s.store.Stats(),
		RecommendMisses:   s.misses.Load(),
		RecommendBypasses: s.bypasses.Load(),
		IngestRejects:     s.rejects.Load(),
	}
	if s.cache != nil {
		c := s.cache.Stats()
		st.CacheEntries, st.RecommendHits = c.Entries, c.Hits
	}
	return st
}

func (s *Service) reject() { s.rejects.Add(1) }
