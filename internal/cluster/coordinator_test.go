package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
)

// fakeClock drives coordinator time deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testConfig(clock *fakeClock) Config {
	return Config{
		LeaseTTL:   100 * time.Millisecond,
		StealAfter: 10 * time.Millisecond,
		WorkerTTL:  time.Hour,
		Retry:      jobs.Spec{Retries: 1, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		Now:        clock.Now,
	}
}

// oneCellSpec is the smallest possible plan: one figure, one workload.
func oneCellSpec() Spec {
	return Spec{Figures: []string{"4"}, Workloads: []string{"minife"}, Seed: 1}
}

// fragment fabricates a cell result for protocol-level tests.
func fragment(cell Cell) *core.Figure {
	return &core.Figure{
		ID:    "fig" + cell.Figure,
		Title: "test",
		Rows:  []core.Row{{Workload: cell.Workload, Mode: "sw", MeanPct: 1.5}},
	}
}

// registerHolderAndHeir registers two workers and names them by the
// placement of oneCellSpec's cell: heir is its preferred worker, which
// may take the cell the moment a lease lapses, before StealAfter, and
// holder is the other.
func registerHolderAndHeir(c *Coordinator) (holder, heir string) {
	a, _ := c.Register("", "")
	b, _ := c.Register("", "")
	if Place("minife", []string{a, b}) == a {
		return b, a
	}
	return a, b
}

func TestLeaseGrantReportMerge(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(testConfig(clock))
	w1, ttl := c.Register("", "host1:0")
	if w1 == "" || ttl != 100*time.Millisecond {
		t.Fatalf("register: id %q ttl %v", w1, ttl)
	}
	id, shards, err := c.CreateSweep(oneCellSpec())
	if err != nil || shards != 1 {
		t.Fatalf("create: %v (%d shards)", err, shards)
	}
	g, err := c.Lease(w1)
	if err != nil || g == nil {
		t.Fatalf("lease: %v, %+v", err, g)
	}
	if g.SweepID != id || g.Cell.Figure != "4" || g.Cell.Workload != "minife" {
		t.Fatalf("grant %+v", g)
	}
	// No second shard to hand out.
	if g2, err := c.Lease(w1); err != nil || g2 != nil {
		t.Fatalf("second lease: %v, %+v", err, g2)
	}
	if err := c.Report(w1, id, g.Key, fragment(g.Cell), ""); err != nil {
		t.Fatal(err)
	}
	res, err := c.Sweep(id)
	if err != nil || res.State != "done" {
		t.Fatalf("sweep after report: %+v, %v", res, err)
	}
	f := res.Figures["4"]
	if f == nil || len(f.Rows) != 1 || f.Rows[0].Workload != "minife" {
		t.Fatalf("merged figure %+v", f)
	}
}

func TestLeaseExpiryReassigns(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(testConfig(clock))
	w1, w2 := registerHolderAndHeir(c)
	id, _, err := c.CreateSweep(oneCellSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The holder leases first; the heir is refused while the lease is
	// live.
	clock.Advance(time.Second) // past StealAfter, so either worker can take it
	g1, err := c.Lease(w1)
	if err != nil || g1 == nil {
		t.Fatalf("w1 lease: %v %+v", err, g1)
	}
	if g, err := c.Lease(w2); err != nil || g != nil {
		t.Fatalf("leased shard handed out twice: %v %+v", err, g)
	}
	// The lease lapses; the shard is re-offered immediately (no
	// backoff: worker loss is not load).
	clock.Advance(150 * time.Millisecond)
	g2, err := c.Lease(w2)
	if err != nil || g2 == nil || g2.Key != g1.Key {
		t.Fatalf("reassigned lease: %v %+v", err, g2)
	}
	st := c.StatusSnapshot()
	if st.Reassignments != 1 {
		t.Fatalf("reassignments = %d, want 1", st.Reassignments)
	}
	// The original worker's late success still completes the shard.
	if err := c.Report(w1, id, g1.Key, fragment(g1.Cell), ""); err != nil {
		t.Fatal(err)
	}
	if res, _ := c.Sweep(id); res.State != "done" {
		t.Fatalf("late report did not complete sweep: %+v", res)
	}
	// w2's duplicate is an idempotent no-op.
	if err := c.Report(w2, id, g2.Key, fragment(g2.Cell), ""); err != nil {
		t.Fatal(err)
	}
	if res, _ := c.Sweep(id); res.Done != 1 {
		t.Fatalf("duplicate report double-counted: %+v", res)
	}
}

func TestRetryBudgetExhaustionFailsSweep(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(testConfig(clock))
	w1, _ := c.Register("", "")
	id, _, err := c.CreateSweep(oneCellSpec())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	for attempt := 0; attempt < 2; attempt++ {
		g, err := c.Lease(w1)
		if err != nil || g == nil {
			t.Fatalf("attempt %d lease: %v %+v", attempt, err, g)
		}
		if err := c.Report(w1, id, g.Key, nil, "injected failure"); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second) // past the retry backoff
	}
	res, err := c.Sweep(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != "failed" || res.Error == "" {
		t.Fatalf("sweep after budget exhaustion: %+v", res)
	}
	// A failed sweep hands out no more work.
	if g, err := c.Lease(w1); err != nil || g != nil {
		t.Fatalf("failed sweep still leasing: %v %+v", err, g)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(testConfig(clock))
	w1, _ := c.Register("", "")
	w2, _ := c.Register("", "")
	id, _, err := c.CreateSweep(oneCellSpec())
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	g, err := c.Lease(w1)
	if err != nil || g == nil {
		t.Fatalf("lease: %v %+v", err, g)
	}
	// Three 80ms heartbeats carry the lease far past its original TTL.
	for i := 0; i < 3; i++ {
		clock.Advance(80 * time.Millisecond)
		drop, err := c.Heartbeat(w1, []ShardRef{{SweepID: id, Key: g.Key}})
		if err != nil || len(drop) != 0 {
			t.Fatalf("heartbeat %d: %v drop=%v", i, err, drop)
		}
	}
	if g2, err := c.Lease(w2); err != nil || g2 != nil {
		t.Fatalf("heartbeated lease was stolen: %v %+v", err, g2)
	}
	if st := c.StatusSnapshot(); st.Reassignments != 0 {
		t.Fatalf("reassignments = %d, want 0", st.Reassignments)
	}
	// Once heartbeats stop, the next one after expiry is told to drop.
	clock.Advance(150 * time.Millisecond)
	drop, err := c.Heartbeat(w1, []ShardRef{{SweepID: id, Key: g.Key}})
	if err != nil || len(drop) != 1 {
		t.Fatalf("post-expiry heartbeat: %v drop=%v", err, drop)
	}
}

func TestPlacementPreferenceAndSteal(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(testConfig(clock))
	w1, _ := c.Register("", "")
	w2, _ := c.Register("", "")
	if _, _, err := c.CreateSweep(oneCellSpec()); err != nil {
		t.Fatal(err)
	}
	preferred := Place("minife", []string{w1, w2})
	other := w1
	if other == preferred {
		other = w2
	}
	// Before StealAfter the non-preferred worker is refused...
	if g, err := c.Lease(other); err != nil || g != nil {
		t.Fatalf("non-preferred worker got early grant: %v %+v", err, g)
	}
	// ...but the preferred worker is served at once.
	g, err := c.Lease(preferred)
	if err != nil || g == nil {
		t.Fatalf("preferred worker refused: %v %+v", err, g)
	}
}

func TestStealAfterUnblocksOrphanedCells(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(testConfig(clock))
	w1, _ := c.Register("", "")
	w2, _ := c.Register("", "")
	if _, _, err := c.CreateSweep(oneCellSpec()); err != nil {
		t.Fatal(err)
	}
	preferred := Place("minife", []string{w1, w2})
	other := w1
	if other == preferred {
		other = w2
	}
	clock.Advance(testConfig(clock).StealAfter + time.Millisecond)
	if g, err := c.Lease(other); err != nil || g == nil {
		t.Fatalf("steal after wait refused: %v %+v", err, g)
	}
}

func TestSentinelErrors(t *testing.T) {
	clock := newFakeClock()
	c := NewCoordinator(testConfig(clock))
	if _, err := c.Lease("ghost"); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("lease from ghost: %v", err)
	}
	if _, err := c.Heartbeat("ghost", nil); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("heartbeat from ghost: %v", err)
	}
	if _, err := c.Sweep("nope"); !errors.Is(err, ErrUnknownSweep) {
		t.Fatalf("unknown sweep: %v", err)
	}
	w1, _ := c.Register("", "")
	id, _, err := c.CreateSweep(oneCellSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Report(w1, id, "fig9/doom", nil, "x"); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("unknown shard report: %v", err)
	}
	if err := c.Report(w1, "nope", "k", nil, "x"); !errors.Is(err, ErrUnknownSweep) {
		t.Fatalf("unknown sweep report: %v", err)
	}
}

func TestCreateSweepValidates(t *testing.T) {
	c := NewCoordinator(testConfig(newFakeClock()))
	if _, _, err := c.CreateSweep(Spec{Figures: []string{"2"}}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestSilentWorkerDropsFromPlacement(t *testing.T) {
	clock := newFakeClock()
	cfg := testConfig(clock)
	cfg.WorkerTTL = 50 * time.Millisecond
	c := NewCoordinator(cfg)
	w1, _ := c.Register("", "")
	clock.Advance(100 * time.Millisecond) // w1 goes silent past WorkerTTL
	w2, _ := c.Register("", "")
	st := c.StatusSnapshot()
	if len(st.Workers) != 1 || st.Workers[0].ID != w2 {
		t.Fatalf("silent worker still listed: %+v", st.Workers)
	}
	if _, err := c.Lease(w1); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("dropped worker lease: %v", err)
	}
}
