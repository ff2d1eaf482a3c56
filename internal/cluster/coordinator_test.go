package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
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

// registerHolderAndHeir registers two workers: holder takes
// oneCellSpec's cell first, and heir takes it when the lease lapses.
func registerHolderAndHeir(c *Coordinator) (holder, heir string) {
	holder, _ = c.Register("", "")
	heir, _ = c.Register("", "")
	return holder, heir
}

func TestLeaseGrantReportMerge(t *testing.T) {
	clock := newFakeClock()
	c := newCoordinator(clock.Now)
	w1, ttl := c.Register("", "host1:0")
	if w1 == "" || ttl != leaseTTL {
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
	c := newCoordinator(clock.Now)
	w1, w2 := registerHolderAndHeir(c)
	id, _, err := c.CreateSweep(oneCellSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The holder leases first; the heir is refused while the lease is
	// live.
	g1, err := c.Lease(w1)
	if err != nil || g1 == nil {
		t.Fatalf("w1 lease: %v %+v", err, g1)
	}
	if g, err := c.Lease(w2); err != nil || g != nil {
		t.Fatalf("leased shard handed out twice: %v %+v", err, g)
	}
	// The lease lapses; the shard is re-offered immediately (no
	// backoff: worker loss is not load).
	clock.Advance(leaseTTL * 3 / 2)
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
	c := newCoordinator(clock.Now)
	w1, _ := c.Register("", "")
	id, _, err := c.CreateSweep(oneCellSpec())
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt <= retryBudget; attempt++ {
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
	c := newCoordinator(clock.Now)
	w1, _ := c.Register("", "")
	w2, _ := c.Register("", "")
	id, _, err := c.CreateSweep(oneCellSpec())
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Lease(w1)
	if err != nil || g == nil {
		t.Fatalf("lease: %v %+v", err, g)
	}
	// Three heartbeats 0.8 TTL apart carry the lease far past its
	// original TTL.
	for i := 0; i < 3; i++ {
		clock.Advance(leaseTTL * 8 / 10)
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
	clock.Advance(leaseTTL * 3 / 2)
	drop, err := c.Heartbeat(w1, []ShardRef{{SweepID: id, Key: g.Key}})
	if err != nil || len(drop) != 1 {
		t.Fatalf("post-expiry heartbeat: %v drop=%v", err, drop)
	}
}

// TestLeaseGrantsFirstReadyShard pins the one lease rule: whichever
// registered worker asks gets the first pending shard whose backoff has
// passed, in sweep creation order and then plan order.
func TestLeaseGrantsFirstReadyShard(t *testing.T) {
	clock := newFakeClock()
	c := newCoordinator(clock.Now)
	w1, _ := c.Register("", "")
	w2, _ := c.Register("", "")
	s1, _, err := c.CreateSweep(Spec{Figures: []string{"4"}, Workloads: []string{"minife", "hpcg"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := c.CreateSweep(oneCellSpec())
	if err != nil {
		t.Fatal(err)
	}
	lease := func(w string) *Grant {
		t.Helper()
		g, err := c.Lease(w)
		if err != nil || g == nil {
			t.Fatalf("lease for %s: %v %+v", w, err, g)
		}
		return g
	}
	// The later-registered worker asks first and still gets the first
	// cell of the first sweep.
	first := lease(w2)
	if first.SweepID != s1 || first.Key != "fig4/minife" {
		t.Fatalf("first grant %s %s, want %s fig4/minife", first.SweepID, first.Key, s1)
	}
	// A failed attempt backs its shard off: the next cell in plan
	// order, then the next sweep's, are granted past it.
	if err := c.Report(w2, s1, first.Key, nil, "injected failure"); err != nil {
		t.Fatal(err)
	}
	if g := lease(w1); g.SweepID != s1 || g.Key != "fig4/hpcg" {
		t.Fatalf("second grant %s %s, want %s fig4/hpcg", g.SweepID, g.Key, s1)
	}
	if g := lease(w1); g.SweepID != s2 || g.Key != "fig4/minife" {
		t.Fatalf("third grant %s %s, want %s fig4/minife", g.SweepID, g.Key, s2)
	}
	if g, err := c.Lease(w2); err != nil || g != nil {
		t.Fatalf("shard in backoff granted: %v %+v", err, g)
	}
	// Once its backoff passes, the failed shard goes to whoever asks.
	clock.Advance(time.Second)
	if g := lease(w1); g.SweepID != s1 || g.Key != first.Key {
		t.Fatalf("retry grant %s %s, want %s %s", g.SweepID, g.Key, s1, first.Key)
	}
}

func TestSentinelErrors(t *testing.T) {
	clock := newFakeClock()
	c := newCoordinator(clock.Now)
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
	c := newCoordinator(newFakeClock().Now)
	if _, _, err := c.CreateSweep(Spec{Figures: []string{"2"}}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestSilentWorkerDropsFromPlacement(t *testing.T) {
	clock := newFakeClock()
	c := newCoordinator(clock.Now)
	w1, _ := c.Register("", "")
	clock.Advance(workerTTL + time.Millisecond) // w1 goes silent past workerTTL
	w2, _ := c.Register("", "")
	st := c.StatusSnapshot()
	if len(st.Workers) != 1 || st.Workers[0].ID != w2 {
		t.Fatalf("silent worker still listed: %+v", st.Workers)
	}
	if _, err := c.Lease(w1); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("dropped worker lease: %v", err)
	}
}
