package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// coordView is what a restart must preserve of a coordinator: its epoch,
// its sweep id sequence, and per sweep the done count, the failure, and
// each shard's state — with the attempts and last error of the shards
// still pending; a closed shard's are never read again.
type coordView struct {
	Epoch    uint64
	SweepSeq int
	Sweeps   []sweepState
}

type sweepState struct {
	ID     string
	Done   int
	Failed bool
	Err    string
	Shards []cellState
}

type cellState struct {
	Key      string
	State    shardState
	Attempts int
	LastErr  string
}

// stateOf reads c's coordView.
func stateOf(c *Coordinator) coordView {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := coordView{Epoch: c.epoch, SweepSeq: c.sweepSeq}
	for _, id := range c.sweepIDs {
		sw := c.sweeps[id]
		s := sweepState{ID: id, Done: sw.done, Failed: sw.failed, Err: sw.err}
		for _, sh := range sw.shards {
			s.Shards = append(s.Shards, cellState{Key: sh.cell.Key(), State: sh.state, Attempts: sh.attempts, LastErr: sh.lastErr})
		}
		v.Sweeps = append(v.Sweeps, s)
	}
	return v.forgetClosed()
}

// forgetClosed zeroes the attempts and last errors of closed shards.
func (v coordView) forgetClosed() coordView {
	for i := range v.Sweeps {
		for j := range v.Sweeps[i].Shards {
			if sh := &v.Sweeps[i].Shards[j]; sh.State != shardPending {
				sh.Attempts, sh.LastErr = 0, ""
			}
		}
	}
	return v
}

// foldCoordinator is the direct fold of a record prefix: what a
// coordinator that applied exactly these records, and then lost its
// leases to a restart, holds.
func foldCoordinator(recs []coordRecord) coordView {
	var v coordView
	index := map[string]int{}
	for _, r := range recs {
		var sw *sweepState
		var sh *cellState
		if i, ok := index[r.SweepID]; ok {
			sw = &v.Sweeps[i]
			for j := range sw.Shards {
				if sw.Shards[j].Key == r.Key {
					sh = &sw.Shards[j]
				}
			}
		}
		switch r.Op {
		case copEpoch:
			v.Epoch = max(v.Epoch, r.Epoch)
		case copSweepCreated:
			if sw != nil {
				continue
			}
			index[r.SweepID] = len(v.Sweeps)
			s := sweepState{ID: r.SweepID}
			for _, cell := range r.Spec.Cells() {
				s.Shards = append(s.Shards, cellState{Key: cell.Key(), State: shardPending})
			}
			v.Sweeps = append(v.Sweeps, s)
			var n int
			if _, err := fmt.Sscanf(r.SweepID, "s%d", &n); err == nil {
				v.SweepSeq = max(v.SweepSeq, n)
			}
		case copLease:
			if sh != nil && sh.State == shardPending {
				sh.Attempts = max(sh.Attempts, r.Attempts)
			}
		case copShardFailed:
			if sh != nil && sh.State == shardPending {
				sh.Attempts, sh.LastErr = max(sh.Attempts, r.Attempts), r.Error
			}
		case copShardDone:
			if sh != nil && sh.State == shardPending && !sw.Failed {
				sh.State = shardDone
				sw.Done++
			}
		case copSweepFailed:
			if sw != nil && !sw.Failed && sw.Done < len(sw.Shards) {
				sw.Failed, sw.Err = true, r.Error
				if sh != nil {
					sh.State = shardFailed
				}
			}
		}
	}
	v.Epoch++
	return v.forgetClosed()
}

// cannedCoordinatorJournal drives a durable coordinator through every
// journaled transition — epoch, two sweeps created, leases, a shard
// done, failed attempts, a sweep failed on its budget — and ends with a
// shard leased. It returns the log's one segment (name and bytes), the
// decoded records and the offset each record ends at.
func cannedCoordinatorJournal(t *testing.T) (string, []byte, []coordRecord, []int) {
	t.Helper()
	dir := t.TempDir()
	clock := newFakeClock()
	c, _, err := openCoordinator(context.Background(), clock.Now, dir)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := c.Register("", "")
	lease := func() *Grant {
		t.Helper()
		g, err := c.Lease(w)
		if err != nil || g == nil {
			t.Fatalf("lease: %+v, %v", g, err)
		}
		return g
	}
	report := func(g *Grant, reportErr string) {
		t.Helper()
		var frag = fragment(g.Cell)
		if reportErr != "" {
			frag = nil
		}
		if err := c.Report(w, g.SweepID, g.Key, frag, reportErr); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.CreateSweep(oneCellSpec()); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt <= retryBudget; attempt++ {
		// The last attempt spends the budget: the sweep fails.
		report(lease(), fmt.Sprintf("boom %d", attempt+1))
		clock.Advance(time.Second) // past the backoff
	}
	if _, _, err := c.CreateSweep(Spec{Figures: []string{"4"}, Workloads: []string{"minife", "hpcg"}, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	report(lease(), "")
	report(lease(), "boom again")
	clock.Advance(time.Second)
	lease()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v: %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	var recs []coordRecord
	ends := []int{0}
	for off := 0; off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		var r coordRecord
		if err := json.Unmarshal(data[off+8:off+8+n], &r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
		off += 8 + n
		ends = append(ends, off)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		seen[r.Op] = true
	}
	for _, op := range []string{copEpoch, copSweepCreated, copLease, copShardDone, copShardFailed, copSweepFailed} {
		if !seen[op] {
			t.Fatalf("the canned journal has no %s record", op)
		}
	}
	return filepath.Base(segs[0]), data, recs, ends
}

// TestCoordinatorRestartAtEveryRecordBoundary cuts the canned journal
// after every record k, and inside record k+1 (its header, and its
// payload), as a SIGKILL may. Each image must restart (OpenCoordinator)
// to the direct fold of the first k records, in one live segment; so
// must a second restart over that compacted directory, one epoch on.
// Then, for every j up to the restart's appends, journal.append fails
// with a budget of j, so the restart's first j appends — the j-th is
// the last — fail: that restart counts j journal errors and keeps the
// pre-restart segment, and the next one recovers the same fold.
func TestCoordinatorRestartAtEveryRecordBoundary(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	seg, data, recs, ends := cannedCoordinatorJournal(t)
	restart := func(dir string) *Coordinator {
		t.Helper()
		c, _, err := openCoordinator(context.Background(), newFakeClock().Now, dir)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	image := func(n int) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, seg), data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	live := func(dir string) int {
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return len(segs)
	}
	check := func(label string, c *Coordinator, want coordView) {
		t.Helper()
		got := stateOf(c)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recovered %+v\nwant the fold %+v", label, got, want)
		}
	}

	for k := 0; k <= len(recs); k++ {
		want := foldCoordinator(recs[:k])
		var appends uint64
		cuts := []int{ends[k]}
		if k < len(recs) {
			cuts = append(cuts, ends[k]+3, (ends[k]+ends[k+1]+8)/2)
		}
		for _, cut := range cuts {
			label := fmt.Sprintf("k=%d cut=%d", k, cut)
			dir := image(cut)
			c := restart(dir)
			appends = c.ownJournal.Stats().Appends
			check(label+" restart", c, want)
			if n := live(dir); n != 1 {
				t.Fatalf("%s: %d live segments after the restart, want 1", label, n)
			}
			next := want
			next.Epoch++
			check(label+" restart over the compacted log", restart(dir), next)
		}

		for j := uint64(1); j <= appends; j++ {
			label := fmt.Sprintf("k=%d, first %d re-journal appends failed", k, j)
			dir := image(ends[k])
			if err := faultinject.Arm(faultinject.Plan{
				faultinject.SiteJournalAppend: {Kind: faultinject.KindError, Probability: 1, Count: j},
			}); err != nil {
				t.Fatal(err)
			}
			c := restart(dir)
			faultinject.Disarm()
			if st := c.StatusSnapshot(); st.JournalErrors != j {
				t.Fatalf("%s: %d journal errors, want %d", label, st.JournalErrors, j)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(dir, seg)); err != nil {
				t.Fatalf("%s: the pre-restart segment is gone: %v", label, err)
			}
			// The epoch stamp was the first append, so it failed: the next
			// restart computes the same epoch again.
			check(label+", next restart", restart(dir), want)
		}
	}
}

// TestMintedWorkerIDsUniqueAcrossRestart: after a coordinator restart, a
// worker of the previous epoch re-registers under the id it was minted
// there, and a new worker registers with none. In either order they are
// two workers, not one identity.
func TestMintedWorkerIDsUniqueAcrossRestart(t *testing.T) {
	for _, oldFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("old worker first=%v", oldFirst), func(t *testing.T) {
			dir := t.TempDir()
			clock := newFakeClock()
			c1, _, err := openCoordinator(context.Background(), clock.Now, dir)
			if err != nil {
				t.Fatal(err)
			}
			old, _ := c1.Register("", "old:1")
			if err := c1.Close(); err != nil {
				t.Fatal(err)
			}
			c2, _, err := openCoordinator(context.Background(), clock.Now, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			var again, fresh string
			if oldFirst {
				again, _ = c2.Register(old, "old:1")
				fresh, _ = c2.Register("", "new:1")
			} else {
				fresh, _ = c2.Register("", "new:1")
				again, _ = c2.Register(old, "old:1")
			}
			if again != old {
				t.Fatalf("re-registration renamed %s to %s", old, again)
			}
			if fresh == old {
				t.Fatalf("epoch %d minted %s again, the id of a worker from epoch 1", c2.Epoch(), fresh)
			}
			if st := c2.StatusSnapshot(); len(st.Workers) != 2 {
				t.Fatalf("status lists %d workers, want 2: %+v", len(st.Workers), st.Workers)
			}
		})
	}
}
