package journal

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// referenceReplay is the reader Replay was until it started walking
// segments in memory: two io.ReadFull calls and one allocation per
// record, straight on the file. It is kept as the specification of
// every replay decision — what is a torn tail, what is corruption, what
// is delivered before either is found — and FuzzReplayMatchesReference
// holds the in-memory walk to it.
func referenceReplay(dir string, fn func([]byte) error) (ReplayStats, error) {
	var st ReplayStats
	segs, err := segments(dir)
	if err != nil {
		return st, err
	}
	for _, seg := range segs {
		tail, err := referenceReplaySegment(filepath.Join(dir, seg.name), &st, fn)
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

func referenceReplaySegment(path string, st *ReplayStats, fn func([]byte) error) (tornTail bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
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
			return false, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > MaxRecordBytes {
			return false, quarantine(path, st)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return true, truncateTornTail(path, valid)
			}
			return false, err
		}
		if crc32.ChecksumIEEE(payload) != want {
			return false, quarantine(path, st)
		}
		valid += headerBytes + int64(n)
		st.Records++
		st.Bytes += headerBytes + int64(n)
		if err := fn(payload); err != nil {
			return false, err
		}
	}
}

// frame is one record as Append writes it.
func frame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// replayOutcome is everything a replay leaves behind: what it returned,
// what it delivered, and the directory afterwards (a quarantine renames,
// a torn tail truncates).
type replayOutcome struct {
	Stats     ReplayStats
	Err       string
	Delivered [][]byte
	Files     map[string][]byte
}

// runReplay writes parts as consecutive segments of a fresh directory,
// replays them with the given reader — fn failing at record failAt
// (1-based; 0 never) — and collects the outcome.
func runReplay(t *testing.T, parts [][]byte, failAt int, replay func(dir string, fn func([]byte) error) (ReplayStats, error)) replayOutcome {
	t.Helper()
	dir := t.TempDir()
	for i, p := range parts {
		if err := os.WriteFile(filepath.Join(dir, segName(i+1)), p, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out replayOutcome
	st, err := replay(dir, func(p []byte) error {
		out.Delivered = append(out.Delivered, append([]byte{}, p...))
		if len(out.Delivered) == failAt {
			return errors.New("callback failed")
		}
		return nil
	})
	out.Stats = st
	if err != nil {
		out.Err = err.Error()
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out.Files = map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out.Files[e.Name()] = b
	}
	return out
}

// split cuts data into 1 + nseg%3 parts at a and b (mod len+1, in order).
func split(data []byte, a, b uint16, nseg uint8) [][]byte {
	c1, c2 := int(a)%(len(data)+1), int(b)%(len(data)+1)
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	switch nseg % 3 {
	case 0:
		return [][]byte{data}
	case 1:
		return [][]byte{data[:c1], data[c1:]}
	default:
		return [][]byte{data[:c1], data[c1:c2], data[c2:]}
	}
}

// FuzzReplayMatchesReference: arbitrary bytes as one to three segment
// files, replayed by Replay and by the streaming reference on separate
// copies, must deliver the same payloads in the same order, return the
// same stats and error, and leave the same files — the same *.corrupt
// renames, the same lengths after truncation.
func FuzzReplayMatchesReference(f *testing.F) {
	a, b, c := frame([]byte("alpha")), frame([]byte(`{"op":"started","id":"j1"}`)), frame(nil)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	flipped := frame([]byte("bit rot"))
	flipped[headerBytes] ^= 1
	huge := binary.LittleEndian.AppendUint32(nil, MaxRecordBytes+1)
	huge = append(huge, 0, 0, 0, 0, 'x')

	f.Add(cat(a, b, c), uint16(len(a)), uint16(len(a)+len(b)), uint8(2), uint8(0)) // a clean log over three segments
	f.Add(cat(a, b[:5]), uint16(0), uint16(0), uint8(0), uint8(0))                 // torn header
	f.Add(cat(a, b[:len(b)-3]), uint16(0), uint16(0), uint8(0), uint8(0))          // torn payload
	f.Add(cat(a, flipped, b), uint16(len(a)+len(flipped)), uint16(0), uint8(1), uint8(0))
	f.Add(cat(a, huge, b), uint16(len(a)+len(huge)), uint16(0), uint8(1), uint8(0))           // a length of MaxRecordBytes+1
	f.Add(cat(a, b), uint16(len(a)), uint16(len(a)), uint8(2), uint8(0))                      // an empty segment between two
	f.Add(cat(a, b[:len(b)-1], c, a), uint16(len(a)+len(b)-1), uint16(0), uint8(1), uint8(0)) // a torn tail behind a newer segment
	f.Add(cat(a, b, c), uint16(len(a)), uint16(0), uint8(1), uint8(2))                        // the callback fails on record 2

	f.Fuzz(func(t *testing.T, data []byte, a, b uint16, nseg, failAt uint8) {
		parts := split(data, a, b, nseg)
		got := runReplay(t, parts, int(failAt), func(dir string, fn func([]byte) error) (ReplayStats, error) {
			return Replay(context.Background(), dir, fn)
		})
		want := runReplay(t, parts, int(failAt), referenceReplay)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Replay and the reference reader disagree on %d segments %q\n got: %s\nwant: %s",
				len(parts), parts, got, want)
		}
	})
}

func (o replayOutcome) String() string {
	return fmt.Sprintf("stats %+v err %q delivered %q files %q", o.Stats, o.Err, o.Delivered, o.Files)
}
