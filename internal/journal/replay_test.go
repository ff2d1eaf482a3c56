package journal

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeJobsShapedLog appends a log shaped like a jobs WAL — per finished
// job an accepted record carrying a 150-byte payload, then started and
// succeeded; open jobs are accepted only — and returns the record count.
func writeJobsShapedLog(tb testing.TB, dir string, finished, open int) int {
	tb.Helper()
	w, err := Open(dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	payload := strings.Repeat("x", 150)
	n := 0
	add := func(format string, args ...any) {
		if err := w.Append(context.Background(), []byte(fmt.Sprintf(format, args...))); err != nil {
			tb.Fatal(err)
		}
		n++
	}
	for i := 0; i < finished+open; i++ {
		id := fmt.Sprintf("j%06d-0123456789ab", i)
		add(`{"op":"accepted","id":"%s","kind":"simulate","request_id":"r-0123456789ab","payload":"%s"}`, id, payload)
		if i < finished {
			add(`{"op":"started","id":"%s"}`, id)
			add(`{"op":"succeeded","id":"%s"}`, id)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return n
}

// readSyscalls is the process's count of read(2)-family calls, from
// /proc/self/io; ok is false where the kernel does not expose it.
func readSyscalls() (n int64, ok bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "syscr: %d", &n); err == nil {
			return n, true
		}
	}
	return 0, false
}

// replayCost replays dir with a callback that only counts, returning the
// allocations of one replay and, where measurable, its read syscalls.
func replayCost(t *testing.T, dir string, wantRecords int) (allocs float64, reads int64) {
	t.Helper()
	replay := func() {
		st, err := Replay(context.Background(), dir, func([]byte) error { return nil })
		if err != nil || st.Records != wantRecords {
			t.Fatalf("replay: %+v, %v; want %d records", st, err, wantRecords)
		}
	}
	allocs = testing.AllocsPerRun(5, replay)
	before, ok := readSyscalls()
	replay()
	after, _ := readSyscalls()
	if !ok {
		return allocs, -1
	}
	return allocs, after - before
}

// TestReplayCostIndependentOfRecordCount: a segment is read in bulk and
// walked in place, so a replay's allocations and read syscalls are set
// by the number of segments, not by the number of records in them.
func TestReplayCostIndependentOfRecordCount(t *testing.T) {
	small, large := t.TempDir(), t.TempDir()
	nSmall := writeJobsShapedLog(t, small, 3, 1)
	nLarge := writeJobsShapedLog(t, large, 330, 10)
	if nLarge < 1000 {
		t.Fatalf("large log has %d records, want at least 1000", nLarge)
	}
	allocsSmall, readsSmall := replayCost(t, small, nSmall)
	allocsLarge, readsLarge := replayCost(t, large, nLarge)
	// Not exact equality: the os package's pooled directory buffers come
	// and go with GC cycles, a few allocations either way. One per record
	// would be a thousand.
	if allocsLarge > allocsSmall+10 {
		t.Errorf("replay of %d records allocates %.0f times, of %d records %.0f: want no allocation per record", nLarge, allocsLarge, nSmall, allocsSmall)
	}
	if readsSmall < 0 {
		t.Log("no /proc/self/io: read syscalls not counted")
		return
	}
	// The directory listing and the reads of /proc/self/io itself ride
	// along; what must not is two reads per record.
	if readsLarge > readsSmall+4 {
		t.Errorf("replay of %d records issued %d reads, of %d records %d: want O(segments)", nLarge, readsLarge, nSmall, readsSmall)
	}
}

// TestReplayBytesCountsDeliveredRecords: Bytes is framing plus payload of
// the whole records delivered — the size of a clean log, and not the torn
// part of a torn one.
func TestReplayBytesCountsDeliveredRecords(t *testing.T) {
	dir := t.TempDir()
	writeJobsShapedLog(t, dir, 5, 2)
	segs, err := segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	path := filepath.Join(dir, segs[0].name)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, st := collect(t, dir); st.Bytes != info.Size() {
		t.Fatalf("clean log of %d bytes replayed %d", info.Size(), st.Bytes)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	recs, st := collect(t, dir)
	last := int64(headerBytes + len(recs[len(recs)-1]))
	if want := info.Size() - last; !st.TornTail || st.Bytes != want {
		t.Fatalf("torn log replayed %d bytes (torn=%v), want %d", st.Bytes, st.TornTail, want)
	}
}

// TestReplayPayloadIsAView pins the callback contract the poisonViews
// hook enforces on the packages above (view_test.go): the bytes
// handed to fn are the replay buffer's, gone once fn returns.
func TestReplayPayloadIsAView(t *testing.T) {
	dir := t.TempDir()
	n := writeJobsShapedLog(t, dir, 2, 1)
	poisonViews = true
	defer func() { poisonViews = false }()
	var kept, copied [][]byte
	if _, err := Replay(context.Background(), dir, func(p []byte) error {
		kept = append(kept, p)
		copied = append(copied, bytes.Clone(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(kept) != n {
		t.Fatalf("delivered %d records, want %d", len(kept), n)
	}
	for i := range kept {
		if bytes.Equal(kept[i], copied[i]) {
			t.Fatalf("record %d: a retained view survived poisoning", i)
		}
		if !bytes.HasPrefix(copied[i], []byte(`{"op":"`)) {
			t.Fatalf("record %d: copy damaged: %q", i, copied[i])
		}
	}
}

// BenchmarkReplay is the journal layer of a cesimd boot alone: a log with
// the restart_recovery image's shape, the callback ignoring the bytes.
// reads/op is read(2) calls per replay (Linux).
func BenchmarkReplay(b *testing.B) {
	dir := b.TempDir()
	n := writeJobsShapedLog(b, dir, 4000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	before, ok := readSyscalls()
	for i := 0; i < b.N; i++ {
		st, err := Replay(context.Background(), dir, func([]byte) error { return nil })
		if err != nil || st.Records != n {
			b.Fatalf("replay: %+v, %v", st, err)
		}
	}
	if after, _ := readSyscalls(); ok {
		b.ReportMetric(float64(after-before)/float64(b.N), "reads/op")
	}
}
