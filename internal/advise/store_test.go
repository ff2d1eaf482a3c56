package advise

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/faultmodel"
)

func ev(tenant, node string, ts int64, addr uint64) Event {
	return Event{Tenant: tenant, Node: node, TimeNanos: ts, Addr: addr}
}

func TestStoreApplyAndLookup(t *testing.T) {
	s := NewStore(StoreConfig{})
	batch := []Event{
		ev("acme", "n1", 60e9, 0x1000),
		ev("acme", "n1", 120e9, 0x1000),
		ev("acme", "n2", 60e9, 0x2000),
	}
	if err := s.Apply(batch); err != nil {
		t.Fatal(err)
	}
	est, _, ok := s.Node("acme", "n1")
	if !ok || est.TotalEvents != 2 {
		t.Fatalf("n1: ok=%v est=%+v", ok, est)
	}
	if _, _, ok := s.Node("acme", "nope"); ok {
		t.Fatal("unknown node reported ok")
	}
	if _, _, ok := s.Node("ghost", "n1"); ok {
		t.Fatal("unknown tenant reported ok")
	}
	st := s.Stats()
	if st.Tenants != 1 || st.Nodes != 2 || st.Events != 3 || st.Batches != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStoreNodeLimitAtomic: a batch that would blow the per-tenant node
// cap is rejected whole — even the events addressed to already-tracked
// nodes must not land.
func TestStoreNodeLimitAtomic(t *testing.T) {
	s := NewStore(StoreConfig{MaxNodesPerTenant: 2})
	if err := s.Apply([]Event{ev("acme", "n1", 60e9, 1)}); err != nil {
		t.Fatal(err)
	}
	err := s.Apply([]Event{
		ev("acme", "n1", 120e9, 2), // existing node: would be fine alone
		ev("acme", "n2", 60e9, 3),
		ev("acme", "n3", 60e9, 4), // third node: over the cap
	})
	if !errors.Is(err, ErrNodeLimit) {
		t.Fatalf("err = %v, want ErrNodeLimit", err)
	}
	est, _, _ := s.Node("acme", "n1")
	if est.TotalEvents != 1 {
		t.Fatalf("rejected batch leaked into n1: %+v", est)
	}
	if st := s.Stats(); st.Nodes != 1 || st.Events != 1 {
		t.Fatalf("rejected batch changed stats: %+v", st)
	}
}

func TestStoreTenantLimitAtomic(t *testing.T) {
	s := NewStore(StoreConfig{MaxTenants: 1})
	if err := s.Apply([]Event{ev("acme", "n1", 60e9, 1)}); err != nil {
		t.Fatal(err)
	}
	err := s.Apply([]Event{
		ev("acme", "n1", 120e9, 2),
		ev("globex", "n1", 60e9, 3),
	})
	if !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("err = %v, want ErrTenantLimit", err)
	}
	if st := s.Stats(); st.Tenants != 1 || st.Events != 1 {
		t.Fatalf("rejected batch changed stats: %+v", st)
	}
}

// TestStoreBatchOrderIndependence: applying the same batches in any
// order converges to identical per-node estimates and classifications.
func TestStoreBatchOrderIndependence(t *testing.T) {
	var batches [][]Event
	for b := 0; b < 8; b++ {
		var batch []Event
		for i := 0; i < 20; i++ {
			n := fmt.Sprintf("n%d", (b+i)%3)
			batch = append(batch, ev("acme", n, int64(1+b*7919+i*613)*1e9, faultmodel.Compose(uint64(b*31+i), 0)))
		}
		batches = append(batches, batch)
	}

	forward := NewStore(StoreConfig{})
	backward := NewStore(StoreConfig{})
	for i := range batches {
		if err := forward.Apply(batches[i]); err != nil {
			t.Fatal(err)
		}
		if err := backward.Apply(batches[len(batches)-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []string{"n0", "n1", "n2"} {
		ef, cf, okf := forward.Node("acme", n)
		eb, cb, okb := backward.Node("acme", n)
		if !okf || !okb {
			t.Fatalf("%s missing: %v %v", n, okf, okb)
		}
		if ef != eb {
			t.Fatalf("%s: batch order changed estimate:\n fwd %+v\n bwd %+v", n, ef, eb)
		}
		if cf != cb {
			t.Fatalf("%s: batch order changed classification: %+v vs %+v", n, cf, cb)
		}
	}
}
