// Package journal is the service tier's write-ahead log: an
// append-only sequence of CRC-framed records spread across rotating
// segment files, with batched fsync and a deterministic, corruption-
// tolerant replay. The jobs queue journals job lifecycles through it so
// a killed daemon re-enqueues unfinished work, and the cluster
// coordinator journals sweep plans, lease grants and completion reports
// so a restart re-offers only unfinished cells (docs/DURABILITY.md).
//
// On-disk layout: dir/wal-00000001.seg, wal-00000002.seg, ... Each
// record is framed as
//
//	[4 bytes little-endian payload length]
//	[4 bytes little-endian IEEE CRC32 of the payload]
//	[payload]
//
// A writer appends to the highest-numbered segment, rotating to a new
// file once the current one reaches 4 MiB. Append only writes; fsync is
// batched beside the appenders: every SyncEvery appends start a
// committer goroutine that fsyncs without the writer's lock, and
// Sync/Close/rotation/compaction wait for it and sync the rest. A
// machine crash loses at most the unsynced tail, 2×SyncEvery−1 records,
// while a process kill (SIGKILL) loses nothing the write(2) calls
// completed — the page cache survives the process.
//
// Replay reads segments in order and is tolerant by construction: a
// record cut short by a segment's end is the expected shape of a crash
// mid-append — tolerated (and truncated away) in ANY segment, because
// restarts append to new segments and may leave an old crash's tail
// behind newer files; a CRC mismatch on a whole record, or an
// impossible length, is corruption, and the offending segment is
// quarantined (renamed to *.corrupt) and skipped rather than crashing
// recovery. Both outcomes are counted so /metrics can surface them.
//
// The log does not grow per restart: Open reuses a trailing empty
// segment instead of minting a new file, and Restart, the recovery both
// journals share, drops the pre-restart segments once the live state is
// re-journaled: their records are by then terminally-resolved history.
//
// The package itself never reads a clock or draws randomness: replayed
// state is a pure function of the bytes on disk, which is what makes
// "same WAL, same recovered state" testable.
package journal

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/faultinject"
)

// segPrefix and segSuffix frame segment file names: wal-%08d.seg.
const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

// headerBytes is the fixed per-record framing overhead.
const headerBytes = 8

// MaxRecordBytes bounds one record's payload (16 MiB). A length field
// beyond it during replay is treated as corruption, not an allocation
// request — a flipped bit in the length must not ask for gigabytes.
const MaxRecordBytes = 16 << 20

// segmentBytes is the size at which a writer starts a new segment.
const segmentBytes = 4 << 20

// Options tunes a Writer.
type Options struct {
	// SyncEvery batches fsync: once this many appends are unsynced the
	// committer fsyncs them in the background (Sync, Close, rotation
	// and compaction always sync), and an appender that finds
	// 2×SyncEvery−1 unsynced waits for the disk. <= 0 selects 64.
	SyncEvery int
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	return o
}

// Stats counts a writer's activity since Open.
type Stats struct {
	// Segments is the number of live segment files in the directory.
	Segments int `json:"segments"`
	// SegmentBytes is the size of the segment currently appended to.
	SegmentBytes int64 `json:"segment_bytes"`
	// Appends counts records appended.
	Appends uint64 `json:"appends"`
	// Syncs counts fsync calls issued.
	Syncs uint64 `json:"syncs"`
	// Rotations counts segment rollovers.
	Rotations uint64 `json:"rotations"`
	// AppendErrors counts appends that failed (disk error or injected
	// fault); the caller degraded to lower durability, not to a crash.
	AppendErrors uint64 `json:"append_errors"`
	// Compacted counts pre-restart segments removed by CompactBefore
	// after their contents were re-journaled through this writer.
	Compacted uint64 `json:"compacted"`
	// DirSyncs counts directory fsyncs issued after segment creation
	// and compaction, making those directory-entry changes durable.
	DirSyncs uint64 `json:"dir_syncs"`
	// SyncErrors counts failed fsyncs, each once; the error itself goes
	// to the next Append or Sync.
	SyncErrors uint64 `json:"sync_errors"`
}

// Writer appends records to the log. Construct with Open; methods are
// safe for concurrent use.
type Writer struct {
	dir      string
	opts     Options
	rotateAt int64 // segmentBytes; the package's tests lower it
	// fsync is (*os.File).Sync; the package's tests replace it to watch,
	// stall or fail the fsyncs of segments and of the directory.
	fsync func(*os.File) error

	mu       sync.Mutex
	st       Stats // SegmentBytes, the current segment's size, is what rotation reads
	f        *os.File
	buf      []byte // one record's frame, reused under mu
	segIndex int
	pending  int // records written but not yet durable; Appends-pending is the durable index
	// committing: a committer is fsyncing w.f without mu. idle is
	// broadcast when it ends; closing or replacing w.f waits for that.
	committing bool
	idle       sync.Cond
	committer  sync.WaitGroup
	syncErr    error // a committer's failed fsync, until an Append or Sync returns it
	// firstIndex is the lowest segment index this writer owns — the
	// compaction floor: CompactBefore never touches this segment or
	// anything above it.
	firstIndex int
}

// SyncDir fsyncs a directory with fsync so preceding creates, renames
// or removes of its entries survive a crash: data fsyncs alone do not
// persist the directory entry that names the file, and a crash between
// the two can resurface a removed segment or drop a freshly created
// one. The journal passes its fault-injectable seam; other callers
// pass (*os.File).Sync.
func SyncDir(dir string, fsync func(*os.File) error) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = fsync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open creates dir if needed and opens a writer positioned after the
// existing log: appends go to a fresh segment numbered above every
// segment already present, so recovery never has to distinguish old
// bytes from new ones inside a file. One exception keeps restarts from
// minting files forever: a trailing EMPTY segment (left by an Open that
// never appended) is reused, since it holds no old bytes to confuse.
func Open(dir string, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", dir, err)
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, opts: opts.withDefaults(), rotateAt: segmentBytes, fsync: (*os.File).Sync, st: Stats{Segments: len(segs)}}
	w.idle.L = &w.mu
	if n := len(segs); n > 0 {
		last := segs[n-1]
		w.segIndex = last.index
		path := filepath.Join(dir, last.name)
		if info, err := os.Stat(path); err == nil && info.Size() == 0 {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("journal: reopen segment: %w", err)
			}
			w.f = f
			w.firstIndex = last.index
			return w, nil
		}
	}
	if err := w.rotateLocked(); err != nil {
		return nil, err
	}
	w.firstIndex = w.segIndex
	return w, nil
}

// segment is one discovered log file.
type segment struct {
	index int
	name  string
}

// segments lists the live segment files in dir, sorted by index.
// Quarantined (*.corrupt) files are ignored.
func segments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: read %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		var idx int
		if _, err := fmt.Sscanf(name, segPrefix+"%08d"+segSuffix, &idx); err != nil {
			continue
		}
		if name != segName(idx) {
			continue
		}
		segs = append(segs, segment{index: idx, name: name})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	return segs, nil
}

func segName(index int) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, index, segSuffix)
}

// rotateLocked makes the current segment durable, opens the next one
// and only then closes the old, so a failure at any step leaves w.f
// open and the next Append retries the rotation. w.mu must be held.
func (w *Writer) rotateLocked() error {
	if w.f != nil {
		if err := w.syncLocked(); err != nil {
			return err
		}
	}
	path := filepath.Join(w.dir, segName(w.segIndex+1))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: create segment: %w", err)
	}
	// The name is spent once the file exists: a retry after a failed
	// directory fsync must not trip O_EXCL over the empty file left here.
	w.segIndex++
	w.st.Segments++
	// Crash ordering: the directory entry naming the new segment must
	// be durable before any record in it is — otherwise a crash after
	// an acknowledged append could lose the whole segment while its
	// predecessor's close is already on disk.
	if err := SyncDir(w.dir, w.fsync); err != nil {
		if cerr := f.Close(); cerr != nil {
			err = fmt.Errorf("%v; close: %v", err, cerr)
		}
		return fmt.Errorf("journal: create segment: %w", err)
	}
	w.st.DirSyncs++
	old := w.f
	w.f, w.st.SegmentBytes = f, 0
	if old == nil {
		return nil // Open's first segment is the opening position, not a rotation
	}
	w.st.Rotations++
	if err := old.Close(); err != nil {
		return fmt.Errorf("journal: close segment: %w", err)
	}
	return nil
}

// Append frames payload with its length and CRC and writes it to the
// current segment in one write(2), rotating first when the segment is
// full. It returns once the bytes are in the page cache — in order, and
// safe from SIGKILL — and never fsyncs them itself: the SyncEvery-th
// unsynced record starts the committer. ctx feeds the journal.append
// fault site; the write itself is not cancellable — a record is either
// fully appended or not appended at all (a torn write is healed by
// replay's tail handling).
func (w *Writer) Append(ctx context.Context, payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("journal: record of %d bytes exceeds MaxRecordBytes", len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("journal: writer closed")
	}
	if err := faultinject.Fire(ctx, faultinject.SiteJournalAppend); err != nil {
		w.st.AppendErrors++
		return fmt.Errorf("journal: append: %w", err)
	}
	// The one place Append waits: before a rotation, and at the bound on
	// the unsynced tail, pending >= 2×SyncEvery−1 — a slow disk stalls
	// its appenders, it does not widen the crash window. What another
	// appender did meanwhile is re-read below.
	if w.st.SegmentBytes >= w.rotateAt || w.pending-w.opts.SyncEvery >= w.opts.SyncEvery-1 {
		if err := w.syncLocked(); err != nil {
			w.st.AppendErrors++
			return err
		}
	}
	if w.st.SegmentBytes >= w.rotateAt {
		if err := w.rotateLocked(); err != nil {
			w.st.AppendErrors++
			return err
		}
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf[:0], uint32(len(payload)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(payload))
	w.buf = append(w.buf, payload...)
	if _, err := w.f.Write(w.buf); err != nil {
		w.st.AppendErrors++
		return fmt.Errorf("journal: append: %w", err)
	}
	w.st.SegmentBytes += int64(len(w.buf))
	w.st.Appends++
	w.pending++
	if w.pending >= w.opts.SyncEvery && !w.committing {
		w.committing = true
		w.committer.Add(1)
		go w.commit(w.f)
	}
	// A failed background fsync is reported once, here or by Sync. This
	// record is written: what degraded is the batch before it.
	if err := w.syncErr; err != nil {
		w.syncErr = nil
		w.st.AppendErrors++
		return err
	}
	return nil
}

// commit is the committer: one fsync of f, covering the n records
// written before it begins, without w.mu, so appenders and Stats never
// wait for the disk. It exits after its batch — an idle Writer owns no
// goroutine. A failure leaves pending alone and is sticky.
func (w *Writer) commit(f *os.File) {
	defer w.committer.Done()
	w.mu.Lock()
	n := w.pending
	w.mu.Unlock()
	err := w.fsync(f)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.syncErr = fmt.Errorf("journal: sync: %w", err)
		w.st.SyncErrors++
	} else {
		w.pending -= n
		w.st.Syncs++
	}
	w.committing = false
	w.idle.Broadcast()
}

// Sync returns once every record appended before the call is on stable
// storage, ending the current fsync batch. ctx feeds the journal.sync
// fault site.
func (w *Writer) Sync(ctx context.Context) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if err := faultinject.Fire(ctx, faultinject.SiteJournalSync); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return w.syncLocked()
}

// syncLocked is the barrier under Sync, Close, rotation, compaction and
// the appenders' bound: wait out the committer (releasing w.mu, which
// must be held), report its error if it left one, else fsync the rest.
func (w *Writer) syncLocked() error {
	for w.committing {
		w.idle.Wait()
	}
	if w.f == nil {
		return fmt.Errorf("journal: writer closed") // by a Close that won the wait
	}
	if err := w.syncErr; err != nil {
		w.syncErr = nil
		return err
	}
	if w.pending == 0 {
		return nil
	}
	if err := w.fsync(w.f); err != nil {
		w.st.SyncErrors++
		return fmt.Errorf("journal: sync: %w", err)
	}
	w.pending = 0
	w.st.Syncs++
	return nil
}

// CompactBefore deletes every live segment numbered below the first
// one this writer owns, returning how many were removed. Call it only
// once the full live state is re-journaled through this writer (Restart
// does): the older segments then hold only terminally-resolved history.
// The writer syncs first so the re-journaled snapshot is durable before
// its predecessors disappear; quarantined *.corrupt files are left
// behind as evidence.
func (w *Writer) CompactBefore() (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, fmt.Errorf("journal: writer closed")
	}
	if err := w.syncLocked(); err != nil {
		return 0, err
	}
	segs, err := segments(w.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, s := range segs {
		if s.index >= w.firstIndex {
			break
		}
		if err := os.Remove(filepath.Join(w.dir, s.name)); err != nil {
			return removed, fmt.Errorf("journal: compact: %w", err)
		}
		removed++
		w.st.Segments--
		w.st.Compacted++
	}
	// Crash ordering: the removals must reach the directory before the
	// caller forgets the re-journaled state is self-contained — without
	// this fsync a crash can resurface a removed segment, and replay
	// would double-apply history the snapshot already contains.
	if removed > 0 {
		if err := SyncDir(w.dir, w.fsync); err != nil {
			return removed, fmt.Errorf("journal: compact: %w", err)
		}
		w.st.DirSyncs++
	}
	return removed, nil
}

// Close syncs and closes the current segment and joins the committer;
// the writer cannot append afterwards.
func (w *Writer) Close() error {
	defer w.committer.Wait() // registered first: runs after the unlock
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// Stats snapshots the writer's counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.st
}
