package journal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
)

// ReplayStats reports what a replay pass observed.
type ReplayStats struct {
	// Records is the number of valid records delivered to the callback.
	Records int `json:"records"`
	// Segments is the number of segment files read.
	Segments int `json:"segments"`
	// Quarantined counts segments renamed to *.corrupt because a whole
	// record failed its CRC or carried an impossible length — damage a
	// crash cannot produce, only bit rot or tampering can.
	Quarantined int `json:"quarantined"`
	// TornTail reports that a segment ended mid-record — the expected
	// shape of a crash during an append. The partial record is
	// discarded (and truncated away, best effort) and the segment's
	// whole records all replay. A restart appends to a NEW segment, so
	// a crash's torn tail can later sit behind newer segments; it is a
	// clean tail wherever it is found, never corruption.
	TornTail bool `json:"torn_tail,omitempty"`
	// Bytes is the size of the records delivered, framing included: the
	// log volume a recovery actually processed.
	Bytes int64 `json:"bytes"`
}

// poisonViews is a test hook: zero each record's bytes once fn has
// returned, so a callback that kept its view without copying is caught.
var poisonViews bool

// Replay reads every live segment in dir in order and calls fn for each
// valid record. A record cut short by the segment's end is a torn tail
// — what a crash mid-append leaves behind — in any segment, because
// writers only ever append to a segment's end and every restart opens a
// new segment above the old ones: the partial record is discarded, the
// tail truncated to the last whole record (best effort, so the damage
// is reported once, not on every future replay), and the segment's
// valid records are all delivered. A CRC mismatch on a complete record,
// or an impossible length, is real corruption: the segment is
// quarantined — renamed to <segment>.corrupt, skipping its remaining
// bytes — and replay continues with the next segment. Replay never
// invents order: records are delivered exactly as appended, so the same
// directory bytes always rebuild the same state.
//
// A segment is read in bulk and payload is a view into that buffer,
// valid only until fn returns: a callback that keeps any of the bytes
// copies them.
//
// fn returning an error aborts replay with that error; corruption never
// does. ctx feeds the journal.replay fault site, fired once per
// segment.
func Replay(ctx context.Context, dir string, fn func(payload []byte) error) (ReplayStats, error) {
	var st ReplayStats
	segs, err := segments(dir)
	if err != nil {
		// A missing directory is an empty log, not an error.
		if errors.Is(err, fs.ErrNotExist) {
			return st, nil
		}
		return st, err
	}
	var buf []byte // every segment's bytes in turn; grows to the largest
	for _, seg := range segs {
		if err := faultinject.Fire(ctx, faultinject.SiteJournalReplay); err != nil {
			return st, fmt.Errorf("journal: replay %s: %w", seg.name, err)
		}
		path := filepath.Join(dir, seg.name)
		if buf, err = readSegment(path, buf); err != nil {
			return st, fmt.Errorf("journal: replay: %w", err)
		}
		tail, err := replaySegment(path, buf, &st, fn)
		if err != nil {
			return st, err
		}
		st.Segments++
		if tail {
			st.TornTail = true
		}
	}
	return st, nil
}

// replaySegment walks the frames of one segment, whose bytes are data,
// in place: fn gets views into data. tornTail reports a partial record
// at the segment's end; a bad whole record quarantines the segment.
func replaySegment(path string, data []byte, st *ReplayStats, fn func([]byte) error) (tornTail bool, err error) {
	valid := 0 // offset just past the last whole record
	for valid < len(data) {
		rest := data[valid:]
		if len(rest) < headerBytes {
			return true, truncateTornTail(path, int64(valid))
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		want := binary.LittleEndian.Uint32(rest[4:8])
		if n > MaxRecordBytes {
			// An impossible length is corruption wherever it appears: it
			// cannot be a torn append, because the header is written in
			// the same write(2) call as the payload and lengths are
			// validated before framing.
			return false, quarantine(path, st)
		}
		size := headerBytes + int(n)
		if len(rest) < size {
			return true, truncateTornTail(path, int64(valid))
		}
		payload := rest[headerBytes:size:size]
		if crc32.ChecksumIEEE(payload) != want {
			return false, quarantine(path, st)
		}
		valid += size
		st.Records++
		st.Bytes += int64(size)
		err := fn(payload)
		if poisonViews {
			clear(payload)
		}
		if err != nil {
			return false, err
		}
	}
	return false, nil // clean segment boundary
}

// readSegment reads the file at path into buf's storage, grown to fit:
// one read(2) per segment, not two per record.
func readSegment(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return buf, err
	}
	if info.Size() > int64(cap(buf)) {
		buf = make([]byte, info.Size())
	}
	n, err := io.ReadFull(f, buf[:info.Size()])
	return buf[:n], err
}

// truncateTornTail heals a crash's torn tail by cutting the segment
// back to its last whole record. Best effort: on a read-only
// filesystem the partial record simply stays, and every replay keeps
// discarding it the same way.
func truncateTornTail(path string, valid int64) error {
	_ = os.Truncate(path, valid)
	return nil
}

// quarantine renames a damaged segment to <path>.corrupt so it is
// excluded from every later replay, and counts it. The rename is
// best-effort: a read-only filesystem still recovers, it just re-skips
// the bytes next time. The directory fsync after the rename is
// likewise best-effort, for the same reason — but when it does land it
// keeps a crash from resurrecting the damaged name and re-feeding the
// same bytes to every future replay.
func quarantine(path string, st *ReplayStats) error {
	st.Quarantined++
	_ = os.Rename(path, path+".corrupt")
	_ = SyncDir(filepath.Dir(path), (*os.File).Sync)
	return nil
}
