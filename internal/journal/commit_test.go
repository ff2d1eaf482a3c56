package journal

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tests in this file pin what the background committer must not
// change: which fsync covers which bytes, what Append, Sync, Close and
// CompactBefore returning means, and the bytes on disk. They see the
// writer through its one seam, Writer.fsync, which every fsync of a
// segment and of the directory goes through.

// diskEvent is one entry of the operation log: an fsync of a segment or
// of the directory, logged when it begins and again when it ends,
// together with what the directory held when it began. Creates, removes
// and writes show up as the difference between consecutive listings;
// a close without a covering fsync shows up as a segment whose final
// size exceeds the size its last fsync began at (checkOrdering).
type diskEvent struct {
	op   string           // "fsync" (a segment) or "dirsync"
	end  bool             // false at begin, true at end
	name string           // segment file name; "" for the directory
	size int64            // the segment's size when its fsync began
	ls   map[string]int64 // segment name → size when the call began
	err  error            // at end: what the fsync returned
}

// disk is the seam's test double: it logs, and lets a test stall or
// fail an fsync before the real one runs.
type disk struct {
	dir string
	// gate runs at the beginning of every fsync. Blocking in it is a
	// slow disk; an error from it is a failed one (the real fsync is
	// then skipped).
	gate func(ev diskEvent) error

	mu  sync.Mutex
	log []diskEvent
}

func (d *disk) fsync(f *os.File) error {
	ev := diskEvent{op: "fsync", name: filepath.Base(f.Name()), ls: d.list()}
	if f.Name() == d.dir {
		ev.op, ev.name = "dirsync", ""
	} else if info, err := f.Stat(); err == nil {
		ev.size = info.Size()
	} else {
		ev.err = err // fsync of a closed file: the ordering checks report it
	}
	d.record(ev)
	err := ev.err
	if err == nil && d.gate != nil {
		err = d.gate(ev)
	}
	if err == nil {
		err = f.Sync()
	}
	ev.end, ev.err = true, err
	d.record(ev)
	return err
}

func (d *disk) record(ev diskEvent) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.log = append(d.log, ev)
}

func (d *disk) events() []diskEvent {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]diskEvent(nil), d.log...)
}

// list returns the live segments and their sizes (nil while the
// directory is missing).
func (d *disk) list() map[string]int64 {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil
	}
	ls := map[string]int64{}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != segSuffix {
			continue
		}
		if info, err := e.Info(); err == nil {
			ls[e.Name()] = info.Size()
		}
	}
	return ls
}

// openOn opens a writer whose fsyncs all go through d. Open's own
// directory fsync, after creating the generation's first segment, runs
// before the seam can be swapped; it is checked through Stats and
// entered into the log by hand.
func openOn(t *testing.T, d *disk, opts Options) *Writer {
	t.Helper()
	w, err := Open(d.dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.DirSyncs != 1 {
		t.Fatalf("Open created a segment with %d directory fsyncs", st.DirSyncs)
	}
	ev := diskEvent{op: "dirsync", ls: d.list()}
	d.record(ev)
	ev.end = true
	d.record(ev)
	w.fsync = d.fsync
	return w
}

// holdFirstFsync makes d's first segment fsync block until release is
// closed; entered is closed when it has begun.
func holdFirstFsync(d *disk) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	d.gate = func(ev diskEvent) error {
		if ev.op == "fsync" && calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return nil
	}
	return entered, release
}

const patience = 10 * time.Second

// await fails the test when ch does not deliver within patience.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(patience):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// returns runs fn on its own goroutine and fails the test when it does
// not return nil within patience — a call stuck behind the fsync.
func returns(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	if err := await(t, done, what); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// stillBlocked is the one negative wait of this file: it can miss a
// bug on a slow box, never report one that is not there.
func stillBlocked[T any](t *testing.T, ch <-chan T, what string) {
	t.Helper()
	select {
	case <-ch:
		t.Fatalf("%s returned while the fsync was held open", what)
	case <-time.After(100 * time.Millisecond):
	}
}

func unsynced(w *Writer) (pending int, durable uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending, w.appends - uint64(w.pending)
}

// appendN appends records r-<from> … r-<from+n-1>.
func appendN(w *Writer, from, n int) error {
	for i := from; i < from+n; i++ {
		if err := w.Append(context.Background(), []byte(fmt.Sprintf("r-%03d", i))); err != nil {
			return fmt.Errorf("append r-%03d: %w", i, err)
		}
	}
	return nil
}

func mustAppendN(t *testing.T, w *Writer, from, n int) {
	t.Helper()
	if err := appendN(w, from, n); err != nil {
		t.Fatal(err)
	}
}

// TestAppendsProceedWhileFsyncInFlight: with the committer's fsync held
// open, appends up to the bound and Stats return; the append at the
// bound blocks and the fsync finishing releases it. At the parent
// commit the SyncEvery-th Append itself sat in the fsync, holding w.mu.
func TestAppendsProceedWhileFsyncInFlight(t *testing.T) {
	const every = 4
	d := &disk{dir: t.TempDir()}
	entered, release := holdFirstFsync(d)
	w := openOn(t, d, Options{SyncEvery: every})

	returns(t, "the appends that fill the first batch", func() error { return appendN(w, 0, every) })
	await(t, entered, "the committer's fsync to begin")
	returns(t, "appends below the bound", func() error { return appendN(w, every, every-1) })
	var st Stats
	returns(t, "Stats", func() error { st = w.Stats(); return nil })
	if st.Appends != 2*every-1 || st.Syncs != 0 {
		t.Fatalf("stats with the fsync in flight: %+v", st)
	}
	if p, _ := unsynced(w); p != 2*every-1 {
		t.Fatalf("unsynced = %d, want the bound %d", p, 2*every-1)
	}

	atBound := make(chan error, 1)
	go func() { atBound <- appendN(w, 2*every-1, 1) }()
	stillBlocked(t, atBound, "the append at the bound")
	close(release)
	if err := await(t, atBound, "the append at the bound"); err != nil {
		t.Fatal(err)
	}
	// The committer made the first batch durable, the released appender
	// synced the rest before adding its own record.
	if p, dur := unsynced(w); p != 1 || dur != 2*every-1 {
		t.Fatalf("after release: unsynced %d, durable %d", p, dur)
	}
	if st := w.Stats(); st.Appends != 2*every || st.Syncs != 2 || st.SyncErrors != 0 {
		t.Fatalf("stats after release: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, d.dir)
	if len(recs) != 2*every {
		t.Fatalf("replayed %d records, want %d", len(recs), 2*every)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("r-%03d", i); string(r) != want {
			t.Fatalf("record %d = %q, want %q", i, r, want)
		}
	}
}

// TestBarriersWaitForTheCommitter: Sync, Close and CompactBefore return
// only when everything appended before the call is durable — they wait
// for the fsync in flight, then sync what it did not cover.
func TestBarriersWaitForTheCommitter(t *testing.T) {
	barriers := map[string]func(w *Writer) error{
		"Sync":          func(w *Writer) error { return w.Sync(context.Background()) },
		"Close":         func(w *Writer) error { return w.Close() },
		"CompactBefore": func(w *Writer) error { _, err := w.CompactBefore(); return err },
	}
	for name, barrier := range barriers {
		t.Run(name, func(t *testing.T) {
			const every = 4
			d := &disk{dir: t.TempDir()}
			entered, release := holdFirstFsync(d)
			w := openOn(t, d, Options{SyncEvery: every})
			defer w.Close()
			mustAppendN(t, w, 0, every)
			await(t, entered, "the committer's fsync to begin")
			mustAppendN(t, w, every, 2)

			done := make(chan error, 1)
			go func() { done <- barrier(w) }()
			stillBlocked(t, done, name)
			close(release)
			if err := await(t, done, name); err != nil {
				t.Fatal(err)
			}
			if p, dur := unsynced(w); p != 0 || dur != every+2 {
				t.Fatalf("after %s: unsynced %d, durable %d of %d", name, p, dur, every+2)
			}
			// Two fsyncs of the segment, the second beginning after the
			// first ended and covering every byte written.
			var fsyncs []diskEvent
			for _, ev := range d.events() {
				if ev.op == "fsync" {
					fsyncs = append(fsyncs, ev)
				}
			}
			if len(fsyncs) != 4 || fsyncs[0].end || !fsyncs[1].end || fsyncs[2].end || !fsyncs[3].end {
				t.Fatalf("fsync log: %+v", fsyncs)
			}
			if info, err := os.Stat(filepath.Join(d.dir, fsyncs[2].name)); err != nil || info.Size() != fsyncs[2].size {
				t.Fatalf("the barrier's fsync began at %d bytes, the segment holds %v (%v)", fsyncs[2].size, info, err)
			}
		})
	}
}

// TestFsyncErrorIsStickyAndCountedOnce: a failed background fsync
// reduces nothing, is counted once, and is returned exactly once — by
// whichever of Append and Sync comes next.
func TestFsyncErrorIsStickyAndCountedOnce(t *testing.T) {
	errDisk := errors.New("disk gone")
	setup := func(t *testing.T) (*disk, *Writer) {
		d := &disk{dir: t.TempDir()}
		var calls atomic.Int32
		d.gate = func(ev diskEvent) error {
			if ev.op == "fsync" && calls.Add(1) == 1 {
				return errDisk
			}
			return nil
		}
		w := openOn(t, d, Options{SyncEvery: 2})
		mustAppendN(t, w, 0, 2)
		w.committer.Wait() // the failed commit has been accounted
		if p, dur := unsynced(w); p != 2 || dur != 0 {
			t.Fatalf("a failed fsync changed the tail: unsynced %d, durable %d", p, dur)
		}
		if st := w.Stats(); st.SyncErrors != 1 || st.Syncs != 0 || st.AppendErrors != 0 {
			t.Fatalf("stats after the failed fsync: %+v", st)
		}
		return d, w
	}
	finish := func(t *testing.T, d *disk, w *Writer, records int) {
		t.Helper()
		if err := w.Sync(context.Background()); err != nil {
			t.Fatalf("sync after the error was reported: %v", err)
		}
		if p, dur := unsynced(w); p != 0 || dur != uint64(records) {
			t.Fatalf("after recovery: unsynced %d, durable %d of %d", p, dur, records)
		}
		if st := w.Stats(); st.SyncErrors != 1 {
			t.Fatalf("sync_errors = %d, want the failure counted once", st.SyncErrors)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if recs, _ := collect(t, d.dir); len(recs) != records {
			t.Fatalf("replayed %d records, want %d", len(recs), records)
		}
	}

	t.Run("next Append", func(t *testing.T) {
		d, w := setup(t)
		err := w.Append(context.Background(), []byte("r-002"))
		if !errors.Is(err, errDisk) {
			t.Fatalf("append after the failed fsync returned %v", err)
		}
		// The record that carried the news is in the log all the same.
		if st := w.Stats(); st.Appends != 3 || st.AppendErrors != 1 {
			t.Fatalf("stats after the reporting append: %+v", st)
		}
		mustAppendN(t, w, 3, 3) // reported once: these succeed, at the bound by syncing inline
		finish(t, d, w, 6)
	})
	t.Run("next Sync", func(t *testing.T) {
		d, w := setup(t)
		if err := w.Sync(context.Background()); !errors.Is(err, errDisk) {
			t.Fatalf("sync after the failed fsync returned %v", err)
		}
		if p, _ := unsynced(w); p != 2 {
			t.Fatalf("reporting the error reduced the tail to %d", p)
		}
		mustAppendN(t, w, 2, 1)
		if st := w.Stats(); st.AppendErrors != 0 {
			t.Fatalf("the error was reported twice: %+v", st)
		}
		finish(t, d, w, 3)
	})
}

// TestWaitingAppendersRotateOnce: Append releases the lock while it
// waits for the committer, so two appenders can both find the segment
// full. The second must see that the first already rotated.
func TestWaitingAppendersRotateOnce(t *testing.T) {
	d := &disk{dir: t.TempDir()}
	entered, release := holdFirstFsync(d)
	w := openOn(t, d, Options{SegmentBytes: 20, SyncEvery: 2}) // 13-byte records: full after two
	mustAppendN(t, w, 0, 2)
	await(t, entered, "the committer's fsync to begin")
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- appendN(w, 2, 1) }()
	stillBlocked(t, first, "an append that has to rotate")
	go func() { second <- appendN(w, 3, 1) }()
	stillBlocked(t, second, "a second append that has to rotate")
	close(release)
	for _, ch := range []chan error{first, second} {
		if err := await(t, ch, "a waiting appender"); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.Rotations != 1 || st.Segments != 2 || st.Appends != 4 {
		t.Fatalf("two appenders waited on one full segment: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	checkOrdering(t, d.events(), d.list())
}

// TestCloseWhileAppenderWaits: an appender that waited for the
// committer may wake to a closed writer. It must fail, not reopen the
// log behind Close's back — whichever of the two wakes first.
func TestCloseWhileAppenderWaits(t *testing.T) {
	for _, closeFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("closeFirst=%v", closeFirst), func(t *testing.T) {
			d := &disk{dir: t.TempDir()}
			entered, release := holdFirstFsync(d)
			w := openOn(t, d, Options{SegmentBytes: 20, SyncEvery: 2})
			mustAppendN(t, w, 0, 2)
			await(t, entered, "the committer's fsync to begin")
			appended, closed := make(chan error, 1), make(chan error, 1)
			doAppend := func() { appended <- appendN(w, 2, 1) } // has to rotate: waits
			doClose := func() { closed <- w.Close() }
			if closeFirst {
				go doClose()
				stillBlocked(t, closed, "Close")
				go doAppend()
			} else {
				go doAppend()
				stillBlocked(t, appended, "an append that has to rotate")
				go doClose()
			}
			close(release)
			if err := await(t, closed, "Close"); err != nil {
				t.Fatal(err)
			}
			records := 2
			if err := await(t, appended, "the waiting appender"); err == nil {
				records = 3 // it won: Close closed the segment it rotated to
			}
			w.mu.Lock()
			open := w.f != nil
			w.mu.Unlock()
			if open {
				t.Fatal("the writer holds a segment after Close returned")
			}
			if st := w.Stats(); int(st.Appends) != records || st.Segments != len(d.list()) {
				t.Fatalf("stats %+v, %d records expected, %d segment files", st, records, len(d.list()))
			}
			if recs, _ := collect(t, d.dir); len(recs) != records {
				t.Fatalf("replayed %d records, want %d", len(recs), records)
			}
			checkOrdering(t, d.events(), d.list())
		})
	}
}

// checkOrdering replays the operation log against DURABILITY.md's
// orderings. final is the directory after the last Close.
func checkOrdering(t *testing.T, events []diskEvent, final map[string]int64) {
	t.Helper()
	covered := map[string]int64{} // segment → bytes its completed fsyncs cover
	begun := map[string]int64{}   // segment → size at the fsync now in flight
	last := map[string]int64{}    // segment → last size seen in any listing
	var prev map[string]int64
	for i, ev := range events {
		if ev.err != nil {
			t.Errorf("event %d: %s %s failed: %v", i, ev.op, ev.name, ev.err)
		}
		if ev.end {
			if ev.op == "fsync" && ev.err == nil && begun[ev.name] > covered[ev.name] {
				covered[ev.name] = begun[ev.name]
			}
			continue
		}
		if ev.op == "fsync" {
			begun[ev.name] = ev.size
		}
		if prev != nil {
			var created, removed []string
			for name := range ev.ls {
				if _, ok := prev[name]; !ok {
					created = append(created, name)
				}
			}
			for name := range prev {
				if _, ok := ev.ls[name]; !ok {
					removed = append(removed, name)
				}
			}
			// Rotation and compaction hold w.mu from the directory change
			// to its fsync, so the dirsync is the first call to see either.
			if (len(created) > 0 || len(removed) > 0) && ev.op != "dirsync" {
				t.Errorf("event %d: %s %s ran between a directory change (created %v, removed %v) and its dirsync",
					i, ev.op, ev.name, created, removed)
			}
			if len(removed) > 0 {
				for _, name := range removed {
					if covered[name] != prev[name] {
						t.Errorf("event %d: %s removed with %d of %d bytes fsynced", i, name, covered[name], prev[name])
					}
				}
				// The snapshot that replaces them: every live segment is
				// durable to its last byte before the predecessors go.
				for name, size := range ev.ls {
					if covered[name] != size {
						t.Errorf("event %d: predecessors removed while %s has %d of %d bytes fsynced", i, name, covered[name], size)
					}
				}
			}
			for _, name := range created {
				// The predecessor was synced before the rotation moved on.
				for older, size := range ev.ls {
					if older != name && covered[older] != size {
						t.Errorf("event %d: %s created while %s has %d of %d bytes fsynced", i, name, older, covered[older], size)
					}
				}
			}
		}
		for name, size := range ev.ls {
			last[name] = size
		}
		prev = ev.ls
	}
	// No close before an fsync covering every byte: nothing is written
	// to a segment after the fsync that precedes its close.
	for name, size := range final {
		last[name] = size
	}
	for name, size := range last {
		if covered[name] != size {
			t.Errorf("%s was closed with %d of %d bytes fsynced", name, covered[name], size)
		}
	}
}

// TestOperationOrderUnderConcurrency runs 8 appenders over two writer
// generations, many rotations and a CompactBefore, and checks the
// operation log, the bound on the unsynced tail and the durable index.
func TestOperationOrderUnderConcurrency(t *testing.T) {
	const (
		appenders = 8
		perGen    = 120
		every     = 8
	)
	d := &disk{dir: t.TempDir()}
	opts := Options{SegmentBytes: 2048, SyncEvery: every}

	var lastDurable uint64 // guarded by the writer's mu, like what it is compared with
	observe := func(w *Writer) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.pending > 2*every-1 {
			t.Errorf("unsynced tail %d exceeds the bound %d", w.pending, 2*every-1)
		}
		durable := w.appends - uint64(w.pending)
		if durable < lastDurable {
			t.Errorf("durable index went back from %d to %d", lastDurable, durable)
		}
		lastDurable = durable
	}
	generation := func(gen int, midway func(w *Writer)) {
		w := openOn(t, d, opts)
		lastDurable = 0
		half := make(chan struct{})
		var wg sync.WaitGroup
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for i := 0; i < perGen; i++ {
					if a == 0 && i == perGen/2 {
						close(half)
					}
					rec := fmt.Sprintf("g%d-a%d-%03d-%s", gen, a, i, bytes.Repeat([]byte{'x'}, 8*a))
					if err := w.Append(context.Background(), []byte(rec)); err != nil {
						t.Errorf("append %s: %v", rec, err)
						return
					}
					observe(w)
				}
			}(a)
		}
		<-half
		midway(w)
		wg.Wait()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); st.Rotations < 3 || st.SyncErrors != 0 || st.AppendErrors != 0 {
			t.Fatalf("generation %d stats: %+v", gen, st)
		}
	}
	generation(1, func(*Writer) {})
	generation(2, func(w *Writer) {
		removed, err := w.CompactBefore()
		if err != nil || removed < 3 {
			t.Errorf("CompactBefore removed %d segments: %v", removed, err)
		}
		observe(w)
	})

	checkOrdering(t, d.events(), d.list())

	// What is left replays as generation 2 only, each appender's records
	// in the order it appended them.
	recs, st := collect(t, d.dir)
	if len(recs) != appenders*perGen || st.Quarantined != 0 || st.TornTail {
		t.Fatalf("replayed %d records (%+v), want %d", len(recs), st, appenders*perGen)
	}
	next := make([]int, appenders)
	for _, r := range recs {
		var gen, a, i int
		if _, err := fmt.Sscanf(string(r), "g%d-a%d-%d-", &gen, &a, &i); err != nil || gen != 2 {
			t.Fatalf("unexpected record %q (%v)", r, err)
		}
		if i != next[a] {
			t.Fatalf("appender %d: record %d replayed where %d was due", a, i, next[a])
		}
		next[a]++
	}
}

// TestFailedRotationIsRetried: a rotation that fails — the next segment
// cannot be created, or its directory entry cannot be fsynced — leaves
// a writer whose next Append tries again. At the parent commit the old
// segment was already closed by then, and every later Append failed
// with "file already closed" until the daemon restarted.
func TestFailedRotationIsRetried(t *testing.T) {
	rec := func(i int) []byte { return []byte(fmt.Sprintf("record-%03d-%s", i, bytes.Repeat([]byte{'.'}, 32))) }
	run := func(t *testing.T, d *disk, breakDir, mendDir func()) {
		w := openOn(t, d, Options{SegmentBytes: 64, SyncEvery: 2})
		var want [][]byte
		add := func(i int) error {
			err := w.Append(context.Background(), rec(i))
			if err == nil {
				want = append(want, rec(i))
			}
			return err
		}
		for i := 0; i < 2; i++ { // fills the first segment past 64 bytes
			if err := add(i); err != nil {
				t.Fatal(err)
			}
		}
		w.committer.Wait() // its fsync lists the directory: let it finish first
		breakDir()
		if err := add(2); err == nil {
			t.Fatal("append rotated into a broken directory")
		}
		mendDir()
		for i := 3; i < 8; i++ {
			if err := add(i); err != nil {
				t.Fatalf("append %d after the directory recovered: %v", i, err)
			}
		}
		if st := w.Stats(); st.AppendErrors != 1 || st.Appends != 7 || st.Rotations < 3 || st.Segments != len(d.list()) {
			t.Fatalf("stats %+v with %d segment files", st, len(d.list()))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, rst := collect(t, d.dir)
		if len(got) != len(want) || rst.Quarantined != 0 || rst.TornTail {
			t.Fatalf("replayed %d records (%+v), want %d", len(got), rst, len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
			}
		}
		checkOrdering(t, successful(d.events()), d.list())
	}

	t.Run("create fails", func(t *testing.T) {
		// Tests run as root, which no permission bit stops: the directory
		// is made unwritable by moving it out from under the writer.
		d := &disk{dir: filepath.Join(t.TempDir(), "wal")}
		away := d.dir + ".away"
		run(t, d,
			func() {
				if err := os.Rename(d.dir, away); err != nil {
					t.Fatal(err)
				}
			},
			func() {
				if err := os.Rename(away, d.dir); err != nil {
					t.Fatal(err)
				}
			})
	})
	t.Run("directory fsync fails", func(t *testing.T) {
		d := &disk{dir: t.TempDir()}
		var broken atomic.Bool
		d.gate = func(ev diskEvent) error {
			if ev.op == "dirsync" && broken.Load() {
				return errors.New("injected: directory fsync failed")
			}
			return nil
		}
		run(t, d, func() { broken.Store(true) }, func() { broken.Store(false) })
	})
}

// successful drops the begin/end pair of every fsync that failed, for
// tests that injected the failure themselves.
func successful(events []diskEvent) []diskEvent {
	var out []diskEvent
	for _, ev := range events {
		if ev.end && ev.err != nil {
			for i := len(out) - 1; i >= 0; i-- {
				if out[i].op == ev.op && out[i].name == ev.name && !out[i].end {
					out = append(out[:i], out[i+1:]...)
					break
				}
			}
			continue
		}
		out = append(out, ev)
	}
	return out
}

// TestSegmentBytesUnchanged: for a fixed script of appends, a Sync and
// a reopen, the segment files hold exactly the frames in append order,
// cut where the rotation rule cuts them — and hash to what the
// inline-fsync writer of the parent commit wrote for the same script
// (recorded there with this test's script; the format did not change).
func TestSegmentBytesUnchanged(t *testing.T) {
	const parentSHA256 = "46fa1f2607fe1698cd54db9530900af8458813dfd63ca5bb88fd177d53673e95"
	dir := t.TempDir()
	opts := Options{SegmentBytes: 4096, SyncEvery: 8}
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// want mirrors the layout rule: a new segment per Open, and one
	// whenever the current segment has reached SegmentBytes.
	want := [][]byte{nil}
	for i := 0; i < 300; i++ {
		switch i {
		case 100:
			if err := w.Sync(context.Background()); err != nil {
				t.Fatal(err)
			}
		case 200:
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if w, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
			want = append(want, nil)
		}
		payload := bytes.Repeat([]byte{byte('a' + i%26)}, 1+(i*37)%200)
		if err := w.Append(context.Background(), payload); err != nil {
			t.Fatal(err)
		}
		if int64(len(want[len(want)-1])) >= opts.SegmentBytes {
			want = append(want, nil)
		}
		cur := &want[len(want)-1]
		*cur = binary.LittleEndian.AppendUint32(*cur, uint32(len(payload)))
		*cur = binary.LittleEndian.AppendUint32(*cur, crc32.ChecksumIEEE(payload))
		*cur = append(*cur, payload...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil || len(segs) != len(want) {
		t.Fatalf("%d segments (%v), want %d", len(segs), err, len(want))
	}
	h := sha256.New()
	for i, s := range segs {
		got, err := os.ReadFile(filepath.Join(dir, s.name))
		if err != nil {
			t.Fatal(err)
		}
		if s.name != segName(i+1) || !bytes.Equal(got, want[i]) {
			t.Fatalf("segment %d (%s): %d bytes differ from the %d framed in append order", i, s.name, len(got), len(want[i]))
		}
		fmt.Fprintf(h, "%s %d\n", s.name, len(got))
		h.Write(got)
	}
	if sum := hex.EncodeToString(h.Sum(nil)); sum != parentSHA256 {
		t.Fatalf("segment bytes hash to %s, the parent commit wrote %s", sum, parentSHA256)
	}
}
