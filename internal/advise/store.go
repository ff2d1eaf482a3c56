package advise

import (
	"errors"
	"fmt"
	"sync"
)

// Admission sentinels, matched with errors.Is at the HTTP layer.
var (
	// ErrTenantLimit reports that admitting a batch would create more
	// tenants than the store is configured to hold.
	ErrTenantLimit = errors.New("advise: tenant limit reached")
	// ErrNodeLimit reports that admitting a batch would track more
	// nodes for a tenant than its cap.
	ErrNodeLimit = errors.New("advise: per-tenant node limit reached")
)

// StoreConfig bounds the per-tenant estimator state.
type StoreConfig struct {
	// Estimator sizes every node's MTBCE estimator.
	Estimator EstimatorConfig
	// MaxTenants bounds distinct tenants (default 1024).
	MaxTenants int
	// MaxNodesPerTenant bounds tracked nodes per tenant (default 4096).
	MaxNodesPerTenant int
	// MinSamples is the classification floor (default
	// DefaultMinSamples).
	MinSamples int
}

func (c StoreConfig) withDefaults() StoreConfig {
	c.Estimator = c.Estimator.withDefaults()
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1024
	}
	if c.MaxNodesPerTenant <= 0 {
		c.MaxNodesPerTenant = 4096
	}
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultMinSamples
	}
	return c
}

// nodeState is one (tenant, node)'s online state.
type nodeState struct {
	est *Estimator
	fp  Footprint
}

// Store holds the per-(tenant, node) streaming state. All methods are
// safe for concurrent use; batch application is atomic (a batch either
// updates every event's node or none), which together with the
// estimator's order-independent merges gives the service its
// determinism and idempotent-retry discipline.
type Store struct {
	cfg     StoreConfig
	weights []float64 // every estimator's decay table, built once

	mu      sync.Mutex
	tenants map[string]map[string]*nodeState
	nodes   int
	events  uint64
	batches uint64
}

// NewStore returns an empty store.
func NewStore(cfg StoreConfig) *Store {
	cfg = cfg.withDefaults()
	return &Store{cfg: cfg, weights: weightTable(cfg.Estimator), tenants: map[string]map[string]*nodeState{}}
}

// Apply ingests one validated batch atomically. Admission is checked
// for the whole batch before any event lands: a rejected batch leaves
// the store untouched, so the caller can retry or drop it whole.
func (s *Store) Apply(events []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Admission pass: count the tenants and nodes this batch would add.
	newTenants := map[string]map[string]bool{}
	newNodes := 0
	for i := range events {
		ev := &events[i]
		if nodes, ok := s.tenants[ev.Tenant]; ok {
			if _, ok := nodes[ev.Node]; ok {
				continue
			}
		}
		added := newTenants[ev.Tenant]
		if added == nil {
			added = map[string]bool{}
			newTenants[ev.Tenant] = added
		}
		if !added[ev.Node] {
			added[ev.Node] = true
			newNodes++
		}
	}
	tenantCount := len(s.tenants)
	for t, added := range newTenants {
		if _, ok := s.tenants[t]; !ok {
			tenantCount++
		}
		existing := len(s.tenants[t])
		if existing+len(added) > s.cfg.MaxNodesPerTenant {
			return fmt.Errorf("%w: tenant %q would track %d nodes (cap %d)",
				ErrNodeLimit, t, existing+len(added), s.cfg.MaxNodesPerTenant)
		}
	}
	if tenantCount > s.cfg.MaxTenants {
		return fmt.Errorf("%w: batch would raise tenant count to %d (cap %d)",
			ErrTenantLimit, tenantCount, s.cfg.MaxTenants)
	}

	// Apply pass: cannot fail past this point.
	touched := map[*nodeState]bool{}
	for i := range events {
		ev := &events[i]
		nodes := s.tenants[ev.Tenant]
		if nodes == nil {
			nodes = map[string]*nodeState{}
			s.tenants[ev.Tenant] = nodes
		}
		ns := nodes[ev.Node]
		if ns == nil {
			ns = &nodeState{est: newEstimator(s.cfg.Estimator, s.weights)}
			nodes[ev.Node] = ns
			s.nodes++
		}
		ns.est.Add(ev.TimeNanos)
		ns.fp.Add(ev.Addr, ev.Bank)
		touched[ns] = true
	}
	for ns := range touched {
		ns.est.Trim()
	}
	s.events += uint64(len(events))
	s.batches++
	return nil
}

// Node returns the estimate and classification for one tracked node.
func (s *Store) Node(tenant, node string) (Estimate, Classification, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns := s.tenants[tenant][node]
	if ns == nil {
		return Estimate{}, Classification{}, false
	}
	return ns.est.Estimate(), ns.fp.Classify(s.cfg.MinSamples), true
}

// StoreStats is the store's gauge snapshot.
type StoreStats struct {
	Tenants int    `json:"tenants"`
	Nodes   int    `json:"nodes"`
	Events  uint64 `json:"events"`
	Batches uint64 `json:"batches"`
}

// Stats snapshots the store gauges.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Tenants: len(s.tenants), Nodes: s.nodes, Events: s.events, Batches: s.batches}
}
