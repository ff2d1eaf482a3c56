package simcache

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
)

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStorePutGetRoundTrip(t *testing.T) {
	s := openStore(t)
	key := ResultKey("sweep", []byte(`{"figure":"3"}`))
	payload := []byte(`{"rows":[1,2,3]}`)
	if err := s.Put(context.Background(), "acme", key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("get: ok=%v payload=%q", ok, got)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Puts != 1 || st.Hits != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Tenant != "acme" || st.Tenants[0].SizeBytes != int64(len(payload)) {
		t.Fatalf("tenant usage: %+v", st.Tenants)
	}
}

// TestStoreConcurrentPutsAccountOnce races many Puts of one key: the
// entry must be accounted exactly once, globally and per tenant, so
// disk-quota checks don't see inflated usage until the next restart
// scan. The existence check and rename share one critical section.
func TestStoreConcurrentPutsAccountOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"rows":[4,5,6]}`)
	key := ResultKey("sweep", payload)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(context.Background(), "acme", key, payload); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Entries != 1 || st.SizeBytes != int64(len(payload)) {
		t.Fatalf("gauges after racing puts: %+v", st)
	}
	if b := s.TenantBytes("acme"); b != int64(len(payload)) {
		t.Fatalf("tenant bytes after racing puts: %d, want %d", b, len(payload))
	}
	// The restart scan agrees with the incremental gauges.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2 := s2.Stats(); st2.Entries != st.Entries || st2.SizeBytes != st.SizeBytes {
		t.Fatalf("scan disagrees with gauges: %+v vs %+v", st2, st)
	}
}

func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ResultKey("simulate", []byte(`{"nodes":16}`))
	if err := s.Put(context.Background(), "acme", key, []byte("result-bytes")); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok || string(got) != "result-bytes" {
		t.Fatalf("reopened store lost the entry: ok=%v %q", ok, got)
	}
	if b := s2.TenantBytes("acme"); b != int64(len("result-bytes")) {
		t.Fatalf("tenant accounting not rebuilt by scan: %d", b)
	}
}

// entryPath digs out the single entry file under the store root.
func entryPath(t *testing.T, s *Store, key string) string {
	t.Helper()
	p := filepath.Join(s.Dir(), key[:2], key)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("entry file missing: %v", err)
	}
	return p
}

// TestStoreCorruptPayloadBitIdentical is the satellite acceptance: a
// backing-store entry whose payload bytes were flipped must be
// quarantined and reported as a miss, and the recomputed result the
// caller falls back to must be bit-identical to the original bytes —
// the same degrade-to-recompute contract a baseline that bypasses a
// failing cache keeps.
func TestStoreCorruptPayloadBitIdentical(t *testing.T) {
	opts := core.Options{Nodes: 16, Iterations: 2, Reps: 1, Seed: 1, Workloads: []string{"minife"}}
	fig, err := core.Figure4(opts)
	if err != nil {
		t.Fatal(err)
	}
	var original bytes.Buffer
	if err := fig.WriteJSON(&original); err != nil {
		t.Fatal(err)
	}

	s := openStore(t)
	key := ResultKey("sweep", []byte(`{"figure":"4","nodes":16}`))
	if err := s.Put(context.Background(), "t1", key, original.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte on disk.
	path := entryPath(t, s, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("corrupt entry not quarantined: %+v", st)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantine rename missing: %v", err)
	}

	// The bypass path recomputes; determinism makes it bit-identical.
	refig, err := core.Figure4(opts)
	if err != nil {
		t.Fatal(err)
	}
	var recomputed bytes.Buffer
	if err := refig.WriteJSON(&recomputed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recomputed.Bytes(), original.Bytes()) {
		t.Fatal("recomputed result differs from the original bytes")
	}
	// And re-storing after the recompute serves hits again.
	if err := s.Put(context.Background(), "t1", key, recomputed.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, original.Bytes()) {
		t.Fatal("re-stored entry does not round-trip")
	}
}

// TestStoreCorruptEntryUncountedForEveryTenant: an entry whose payload
// fails its CRC on Get leaves the gauges for its owner, the anonymous
// tenant (a request without X-Tenant) as much as a named one.
func TestStoreCorruptEntryUncountedForEveryTenant(t *testing.T) {
	for _, tenant := range []string{"", "acme"} {
		s := openStore(t)
		key := ResultKey("simulate", []byte("tenant="+tenant))
		if err := s.Put(context.Background(), tenant, key, []byte("result-bytes")); err != nil {
			t.Fatal(err)
		}
		path := entryPath(t, s, key)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Fatalf("tenant %q: corrupt entry served", tenant)
		}
		st := s.Stats()
		if st.Quarantined != 1 || st.Entries != 0 || st.SizeBytes != 0 || s.TenantBytes(tenant) != 0 {
			t.Fatalf("tenant %q: after quarantine Entries=%d SizeBytes=%d TenantBytes=%d Quarantined=%d, want 0/0/0/1",
				tenant, st.Entries, st.SizeBytes, s.TenantBytes(tenant), st.Quarantined)
		}
	}
}

// FuzzReadEntry: whatever bytes sit in a shard file, reading them and
// scanning the store never panics. An entry readEntry accepts frames
// back to the same bytes through put's layout and is counted by the
// scan; one it rejects is renamed *.corrupt, bytes intact, and the
// gauges are what they were without the file.
//
//	go test -run '^$' -fuzz=FuzzReadEntry -fuzztime=20s -fuzzminimizetime=0 ./internal/simcache/
func FuzzReadEntry(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("CESR1"))
	f.Add([]byte("CESR1\n\x05\x00acme"))
	f.Add([]byte("CESR1\n\xff\xff"))
	f.Add(frameEntry("", []byte("result-bytes")))
	f.Add(frameEntry("acme", []byte(`{"rows":[1,2,3]}`)))
	f.Add(frameEntry("acme", nil))
	const goodPayload = "good-payload"
	key := strings.Repeat("ab", 32)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		write := func(key string, b []byte) string {
			path := filepath.Join(dir, key[:2], key)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
		write(strings.Repeat("0", 64), frameEntry("t1", []byte(goodPayload)))
		before, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st := before.Stats(); st.Entries != 1 || st.SizeBytes != int64(len(goodPayload)) {
			t.Fatalf("store without the fuzzed file: %+v", st)
		}
		path := write(key, data)
		tenant, payload, _, readErr := readEntry(path)
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if readErr == nil {
			if framed := frameEntry(tenant, payload); !bytes.Equal(framed, data) {
				t.Fatalf("accepted entry reframes to %q, read from %q", framed, data)
			}
			if st.Entries != 2 || st.SizeBytes != int64(len(goodPayload)+len(payload)) || st.Quarantined != 0 {
				t.Fatalf("accepted entry (tenant %q, %d payload bytes) scanned as %+v", tenant, len(payload), st)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("accepted entry read back as %q, %v", got, ok)
			}
			return
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("rejected entry (%v) still in place: %v", readErr, err)
		}
		if kept, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(kept, data) {
			t.Fatalf("rejected entry not quarantined intact: %v", err)
		}
		if st.Entries != 1 || st.SizeBytes != int64(len(goodPayload)) || st.Quarantined != 1 {
			t.Fatalf("rejected entry (%v) scanned as %+v", readErr, st)
		}
	})
}

// TestStoreShortReadQuarantined truncates an entry mid-payload (a
// short read) and mid-header; both must quarantine as misses, not
// error or crash.
func TestStoreShortReadQuarantined(t *testing.T) {
	s := openStore(t)
	key := ResultKey("sweep", []byte("short-read"))
	if err := s.Put(context.Background(), "t1", key, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, s, key)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-8); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("short entry served as a hit")
	}

	key2 := ResultKey("sweep", []byte("short-header"))
	if err := s.Put(context.Background(), "t1", key2, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path2 := entryPath(t, s, key2)
	if err := os.Truncate(path2, 3); err != nil { // inside the magic
		t.Fatal(err)
	}
	if _, ok := s.Get(key2); ok {
		t.Fatal("truncated-header entry served as a hit")
	}
	if st := s.Stats(); st.Quarantined != 2 {
		t.Fatalf("quarantined %d, want 2", st.Quarantined)
	}
}

// TestStoreScanQuarantinesAndCleans puts entries, corrupts one and
// plants a stray temp file, then reopens: the scan must quarantine the
// damage, remove the stray, and keep the good entry.
func TestStoreScanQuarantinesAndCleans(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := ResultKey("sweep", []byte("good"))
	bad := ResultKey("sweep", []byte("bad"))
	if err := s.Put(context.Background(), "t1", good, []byte("good-payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(context.Background(), "t1", bad, []byte("bad-payload")); err != nil {
		t.Fatal(err)
	}
	badPath := entryPath(t, s, bad)
	data, _ := os.ReadFile(badPath)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, good[:2], tmpPrefix+"stray-123")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.Quarantined != 1 || st.Entries != 1 {
		t.Fatalf("scan stats: %+v", st)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray temp file survived the scan")
	}
	if _, ok := s2.Get(good); !ok {
		t.Fatal("good entry lost by the scan")
	}
	if _, ok := s2.Get(bad); ok {
		t.Fatal("quarantined entry served")
	}
}

// TestStoreWriteFaultDegrades arms store.write: the Put fails and is
// counted, the entry is absent, and a later Put succeeds.
func TestStoreWriteFaultDegrades(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	s := openStore(t)
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteStoreWrite: {Kind: faultinject.KindError, Probability: 1, Count: 1},
	}); err != nil {
		t.Fatal(err)
	}
	key := ResultKey("sweep", []byte("faulted"))
	if err := s.Put(context.Background(), "t1", key, []byte("x")); err == nil {
		t.Fatal("armed put did not fail")
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("failed put left an entry")
	}
	if err := s.Put(context.Background(), "t1", key, []byte("x")); err != nil {
		t.Fatalf("put after budget: %v", err)
	}
	st := s.Stats()
	if st.WriteErrors != 1 || st.Puts != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestStoreRejectsHostileKeys(t *testing.T) {
	s := openStore(t)
	for _, key := range []string{"", "short", "../../../../etc/passwd", "ABCDEF0123456789", "0123456789abcdef/evil"} {
		if err := s.Put(context.Background(), "t", key, []byte("x")); err == nil {
			t.Fatalf("key %q accepted", key)
		}
		if _, ok := s.Get(key); ok {
			t.Fatalf("key %q readable", key)
		}
	}
}

// TestStoreDirSyncsCounted pins the publish ordering: a successful Put
// must fsync the shard directory after the rename (counted in
// DirSyncs), a Put that fails at the injected write fault must not
// reach the directory sync, and a quarantining Get adds one more.
func TestStoreDirSyncsCounted(t *testing.T) {
	t.Cleanup(faultinject.Disarm)
	s := openStore(t)
	payload := []byte(`{"rows":[7]}`)
	key := ResultKey("sweep", payload)
	if err := s.Put(context.Background(), "acme", key, payload); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DirSyncs != 1 {
		t.Fatalf("dir syncs after put: %+v", st)
	}

	// A faulted Put fails before the temp file exists: no rename, so
	// no directory sync either.
	if err := faultinject.Arm(faultinject.Plan{
		faultinject.SiteStoreWrite: {Kind: faultinject.KindError, Probability: 1, Count: 1},
	}); err != nil {
		t.Fatal(err)
	}
	key2 := ResultKey("sweep", []byte("faulted"))
	if err := s.Put(context.Background(), "acme", key2, []byte("x")); err == nil {
		t.Fatal("armed put did not fail")
	}
	if st := s.Stats(); st.DirSyncs != 1 || st.WriteErrors != 1 {
		t.Fatalf("dir syncs after faulted put: %+v", st)
	}

	// Corrupt the entry on disk: the quarantining Get renames it and
	// syncs the shard directory again.
	path := s.path(key)
	if err := os.WriteFile(path, []byte("CESR1\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt entry served")
	}
	if st := s.Stats(); st.DirSyncs != 2 || st.Quarantined != 1 {
		t.Fatalf("dir syncs after quarantine: %+v", st)
	}
}
