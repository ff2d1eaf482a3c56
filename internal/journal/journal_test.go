package journal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
)

// collect replays dir into a slice of record copies.
func collect(t *testing.T, dir string) ([][]byte, ReplayStats) {
	t.Helper()
	var recs [][]byte
	st, err := Replay(context.Background(), dir, func(p []byte) error {
		recs = append(recs, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SyncEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		rec := []byte(fmt.Sprintf("record-%d", i))
		want = append(want, rec)
		if err := w.Append(context.Background(), rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := collect(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
	if st.Quarantined != 0 || st.TornTail {
		t.Fatalf("clean log reported damage: %+v", st)
	}
}

func TestSegmentRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenSized(dir, Options{SyncEvery: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := w.Append(context.Background(), bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Rotations == 0 {
		t.Fatalf("expected rotations with 64-byte segments, got %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopened writer appends into a fresh, higher-numbered segment;
	// old records replay before new ones.
	w2, err := OpenSized(dir, Options{SyncEvery: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(context.Background(), []byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, dir)
	if len(recs) != 21 {
		t.Fatalf("replayed %d records, want 21", len(recs))
	}
	if string(recs[20]) != "after-reopen" {
		t.Fatalf("last record %q, want the post-reopen append", recs[20])
	}
}

func TestReplayDeterministic(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenSized(dir, Options{}, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := w.Append(context.Background(), []byte(fmt.Sprintf("r%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	first, _ := collect(t, dir)
	second, _ := collect(t, dir)
	if len(first) != len(second) {
		t.Fatalf("replay lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("replay %d differs between passes", i)
		}
	}
}

// TestTornTailDiscarded truncates the final segment mid-record — what a
// crash during an append leaves — and expects a clean replay of every
// whole record plus the TornTail flag.
func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(context.Background(), []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	path := filepath.Join(dir, segs[0].name)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	recs, st := collect(t, dir)
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4 (torn 5th discarded)", len(recs))
	}
	if !st.TornTail {
		t.Fatal("TornTail not reported")
	}
	if st.Quarantined != 0 {
		t.Fatalf("torn tail must not quarantine: %+v", st)
	}
}

// TestTornTailInNonFinalSegment is the double-restart regression: a
// crash tears the tail of what was then the last segment, the restart
// appends into a NEW higher-numbered segment, and only then does the
// next replay run. The torn segment is no longer final — but its
// partial record is still a clean crash tail, so its whole records and
// everything after them must replay; quarantining the segment would
// silently drop valid history.
func TestTornTailInNonFinalSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(context.Background(), []byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	torn := filepath.Join(dir, segs[0].name)
	info, err := os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(torn, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	// Restart without replaying first (the pre-fix daemon ordering):
	// the writer opens a new segment above the torn one.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(context.Background(), []byte("new-0")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	recs, st := collect(t, dir)
	if st.Quarantined != 0 {
		t.Fatalf("torn non-final segment quarantined: %+v", st)
	}
	if !st.TornTail {
		t.Fatal("TornTail not reported")
	}
	want := []string{"old-0", "old-1", "new-0"}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records %q, want %d", len(recs), recs, len(want))
	}
	for i, wantRec := range want {
		if string(recs[i]) != wantRec {
			t.Fatalf("record %d = %q, want %q", i, recs[i], wantRec)
		}
	}
	// The tail was truncated away: the next replay is clean and
	// byte-identical.
	recs2, st2 := collect(t, dir)
	if st2.TornTail || st2.Quarantined != 0 {
		t.Fatalf("torn tail not healed: %+v", st2)
	}
	if len(recs2) != len(recs) {
		t.Fatalf("healed replay has %d records, want %d", len(recs2), len(recs))
	}
}

// TestOpenReusesEmptySegment: repeated Open/Close with no appends must
// not mint one segment file per restart.
func TestOpenReusesEmptySegment(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		w, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("idle reopens left %d segments, want 1 (%v)", len(segs), err)
	}
	// The reused segment accepts appends like a fresh one.
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(context.Background(), []byte("after-reuse")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, dir)
	if len(recs) != 1 || string(recs[0]) != "after-reuse" {
		t.Fatalf("replay after reuse: %q", recs)
	}
}

// TestCompactBefore: once the live state is re-journaled through a new
// writer, the pre-restart segments are removed and replay folds only
// the snapshot.
func TestCompactBefore(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.Append(context.Background(), []byte(fmt.Sprintf("history-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(context.Background(), []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	removed, err := w2.CompactBefore()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("compacted %d segments, want 1", removed)
	}
	if st := w2.Stats(); st.Compacted != 1 || st.Segments != 1 {
		t.Fatalf("stats after compact: %+v", st)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, st := collect(t, dir)
	if len(recs) != 1 || string(recs[0]) != "snapshot" {
		t.Fatalf("replay after compact: %q", recs)
	}
	if st.Segments != 1 {
		t.Fatalf("live segments after compact: %+v", st)
	}
}

// TestCorruptSegmentQuarantined flips a payload byte in the first of
// two segments: the segment must be renamed *.corrupt and replay must
// continue with the next segment instead of failing.
func TestCorruptSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenSized(dir, Options{}, 1) // every append rotates
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(context.Background(), []byte("first-segment-record")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(context.Background(), []byte("second-segment-record")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments: %v (%d), want >= 2", err, len(segs))
	}
	path := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerBytes] ^= 0xff // corrupt the first payload byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, st := collect(t, dir)
	if st.Quarantined != 1 {
		t.Fatalf("quarantined %d segments, want 1", st.Quarantined)
	}
	if len(recs) != 1 || string(recs[0]) != "second-segment-record" {
		t.Fatalf("replay after quarantine: %q", recs)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt segment not renamed: %v", err)
	}
	// The quarantined segment stays excluded from later replays.
	recs2, st2 := collect(t, dir)
	if len(recs2) != 1 || st2.Quarantined != 0 {
		t.Fatalf("second replay saw %d records, %d quarantines", len(recs2), st2.Quarantined)
	}
}

// TestImpossibleLengthQuarantined writes a length field larger than
// MaxRecordBytes; replay must quarantine, never allocate it.
func TestImpossibleLengthQuarantined(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenSized(dir, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(context.Background(), []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(context.Background(), []byte("also-good")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segments(dir)
	path := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0], data[1], data[2], data[3] = 0xff, 0xff, 0xff, 0x7f
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, st := collect(t, dir)
	if st.Quarantined != 1 || len(recs) != 1 {
		t.Fatalf("got %d records, %d quarantined; want 1 and 1", len(recs), st.Quarantined)
	}
}

func TestReplayEmptyOrMissingDir(t *testing.T) {
	recs, st := collect(t, filepath.Join(t.TempDir(), "never-created"))
	if len(recs) != 0 || st.Segments != 0 {
		t.Fatalf("missing dir replayed something: %+v", st)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(context.Background(), make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversize append accepted")
	}
}

// TestInjectedAppendFaultCounted arms the journal.append site and
// checks the failure is surfaced as an error and counted, with later
// appends unaffected.
func TestInjectedAppendFaultCounted(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	dir := t.TempDir()
	w, err := Open(dir, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteJournalAppend: {Kind: faultinject.KindError, Probability: 1, Count: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(context.Background(), []byte("faulted")); err == nil {
		t.Fatal("armed append did not fail")
	} else if fe := (*faultinject.Error)(nil); !errors.As(err, &fe) {
		t.Fatalf("append error is not the injected fault: %v", err)
	}
	if err := w.Append(context.Background(), []byte("healed")); err != nil {
		t.Fatalf("append after budget exhausted: %v", err)
	}
	if st := w.Stats(); st.AppendErrors != 1 || st.Appends != 1 {
		t.Fatalf("stats after fault: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, dir)
	if len(recs) != 1 || string(recs[0]) != "healed" {
		t.Fatalf("replay after fault: %q", recs)
	}
}

// TestInjectedReplayFaultSurfaces arms journal.replay so recovery
// itself fails; the error must propagate (the caller decides whether to
// degrade), not panic.
func TestInjectedReplayFaultSurfaces(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteJournalReplay: {Kind: faultinject.KindError, Probability: 1},
	}); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(context.Background(), dir, func([]byte) error { return nil })
	if fe := (*faultinject.Error)(nil); !errors.As(err, &fe) {
		t.Fatalf("armed replay returned %v, want injected fault", err)
	}
}

// TestDirSyncsCounted pins the crash-ordering contract: every segment
// create and every compaction must be followed by a directory fsync,
// visible in Stats so an operator (and this test) can see the contract
// holding. Open mints one segment; a forced rotation mints another;
// CompactBefore's removal adds a third.
func TestDirSyncsCounted(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenSized(dir, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.DirSyncs != 1 {
		t.Fatalf("dir syncs after open: %+v", st)
	}
	// A 1-byte segment forces a rotation on the second append.
	for i := 0; i < 2; i++ {
		if err := w.Append(context.Background(), []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.Rotations != 1 || st.DirSyncs != 2 {
		t.Fatalf("dir syncs after rotation: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(context.Background(), []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	removed, err := w2.CompactBefore()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("compacted %d segments, want 2", removed)
	}
	// One dir sync for w2's own segment create, one for the removals.
	if st := w2.Stats(); st.DirSyncs != 2 {
		t.Fatalf("dir syncs after compact: %+v", st)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}
