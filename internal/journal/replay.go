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
}

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
	for _, seg := range segs {
		if err := faultinject.Fire(ctx, faultinject.SiteJournalReplay); err != nil {
			return st, fmt.Errorf("journal: replay %s: %w", seg.name, err)
		}
		tail, err := replaySegment(filepath.Join(dir, seg.name), &st, fn)
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

// replaySegment reads one segment. tornTail reports a partial record at
// the segment's end; a bad whole record quarantines the segment.
func replaySegment(path string, st *ReplayStats, fn func([]byte) error) (tornTail bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("journal: replay: %w", err)
	}
	defer f.Close()
	var valid int64 // offset just past the last whole record
	var hdr [headerBytes]byte
	for {
		_, err := io.ReadFull(f, hdr[:])
		if errors.Is(err, io.EOF) {
			return false, nil // clean segment boundary
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return true, truncateTornTail(path, valid)
		}
		if err != nil {
			return false, fmt.Errorf("journal: replay %s: %w", path, err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > MaxRecordBytes {
			// An impossible length is corruption wherever it appears: it
			// cannot be a torn append, because the header is written in
			// the same write(2) call as the payload and lengths are
			// validated before framing.
			return false, quarantine(path, st)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return true, truncateTornTail(path, valid)
			}
			return false, fmt.Errorf("journal: replay %s: %w", path, err)
		}
		if crc32.ChecksumIEEE(payload) != want {
			return false, quarantine(path, st)
		}
		valid += headerBytes + int64(n)
		st.Records++
		if err := fn(payload); err != nil {
			return false, err
		}
	}
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
	_ = syncDir(filepath.Dir(path), (*os.File).Sync)
	return nil
}
