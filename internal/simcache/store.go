package simcache

// The on-disk result store extends the package's content-addressed
// keying (Key's sha256 canonicalization) from resident baselines to
// durable job results: the server stores each completed job's result
// bytes under the sha256 of its canonical request, so a restarted
// daemon answers replayed or repeated requests from disk instead of
// recomputing — and a corrupted entry degrades to a recompute, never to
// a wrong answer or a crash (docs/DURABILITY.md).
//
// Entry format (one file per key, sharded by the key's first byte):
//
//	"CESR1\n"                     magic + format version
//	[2 bytes LE tenant length][tenant]
//	[4 bytes LE IEEE CRC32 of payload]
//	[payload]
//
// Writes are atomic: the entry is assembled in a temp file in the same
// directory and renamed into place, so readers never observe a partial
// entry and a crash mid-write leaves only a stray temp file (removed by
// the startup scan). Reads verify the CRC; a short or corrupt entry is
// quarantined (renamed *.corrupt) and reported as a miss. The tenant
// recorded in the header feeds per-tenant disk accounting, rebuilt by
// Scan on startup.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/journal"
)

// ResultKey extends Key's sha256 content addressing from experiment
// configurations to whole job results: the key is the hash of the job
// kind plus the canonical request payload, so two submissions that ask
// for the same computation share one stored answer (the pipeline's
// determinism contract makes the answer a pure function of the
// request).
func ResultKey(kind string, payload []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "kind=%s|", kind)
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// storeMagic frames every entry; bump the digit on format changes.
var storeMagic = []byte("CESR1\n")

// maxTenantLen bounds the tenant name recorded in an entry header.
const maxTenantLen = 256

// StoreStats is the store's /metrics section.
type StoreStats struct {
	// Entries and SizeBytes gauge the live store (maintained
	// incrementally after the startup scan).
	Entries   int   `json:"entries"`
	SizeBytes int64 `json:"size_bytes"`
	// Puts, Hits and Misses count operations since open.
	Puts   uint64 `json:"puts"`
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// WriteErrors counts failed Puts (disk errors or injected faults);
	// each one degraded durability, not correctness.
	WriteErrors uint64 `json:"write_errors"`
	// Quarantined counts corrupt entries renamed *.corrupt — by the
	// startup scan or by a read that failed verification.
	Quarantined uint64 `json:"quarantined"`
	// DirSyncs counts shard-directory fsyncs issued after renames
	// (publishes and quarantines), making those renames durable.
	DirSyncs uint64 `json:"dir_syncs"`
	// Tenants is the per-tenant resident footprint, sorted by name.
	Tenants []TenantUsage `json:"tenants,omitempty"`
}

// TenantUsage is one tenant's resident store footprint.
type TenantUsage struct {
	Tenant    string `json:"tenant"`
	Entries   int    `json:"entries"`
	SizeBytes int64  `json:"size_bytes"`
}

// Store is a content-addressed on-disk result store. Construct with
// OpenStore; all methods are safe for concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	st      StoreStats // all but Tenants, which Stats lists from tenants
	tenants map[string]*TenantUsage
}

// OpenStore creates dir if needed and runs the startup integrity scan:
// every entry is CRC-verified, corrupt or truncated entries are
// quarantined (never fatal), stray temp files from interrupted writes
// are removed, and per-tenant usage is rebuilt from the surviving
// headers.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simcache: open store %s: %w", dir, err)
	}
	s := &Store{dir: dir, tenants: map[string]*TenantUsage{}}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan walks the store once at open, verifying and accounting every
// entry. Damage is quarantined and counted; only an unreadable
// directory is an error.
func (s *Store) scan() error {
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("simcache: scan store: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		shardDir := filepath.Join(s.dir, shard.Name())
		entries, err := os.ReadDir(shardDir)
		if err != nil {
			return fmt.Errorf("simcache: scan store: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			path := filepath.Join(shardDir, name)
			switch {
			case strings.HasPrefix(name, tmpPrefix):
				// Leftover from a write interrupted before rename.
				_ = os.Remove(path)
				continue
			case strings.HasSuffix(name, ".corrupt"):
				continue
			}
			tenant, payload, _, err := readEntry(path)
			if err != nil {
				s.st.Quarantined++
				_ = os.Rename(path, path+".corrupt")
				// Best effort, like the rename: when it lands, a crash
				// cannot resurrect the corrupt name for the next scan.
				if journal.SyncDir(shardDir, (*os.File).Sync) == nil {
					s.st.DirSyncs++
				}
				continue
			}
			s.account(tenant, int64(len(payload)), 1)
		}
	}
	return nil
}

// account adjusts the global and per-tenant gauges. s.mu must be held
// (or the store not yet published).
func (s *Store) account(tenant string, deltaBytes int64, deltaEntries int) {
	s.st.Entries += deltaEntries
	s.st.SizeBytes += deltaBytes
	u, ok := s.tenants[tenant]
	if !ok {
		u = &TenantUsage{Tenant: tenant}
		s.tenants[tenant] = u
	}
	u.Entries += deltaEntries
	u.SizeBytes += deltaBytes
}

// tmpPrefix marks in-progress writes; the startup scan removes strays.
const tmpPrefix = ".tmp-"

// validKey accepts lowercase-hex content hashes (the shape Key and
// ResultKey produce) so a hostile key cannot escape the store root.
func validKey(key string) error {
	if len(key) < 8 || len(key) > 128 {
		return fmt.Errorf("simcache: store key %q: length outside [8, 128]", key)
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("simcache: store key %q: not lowercase hex", key)
		}
	}
	return nil
}

// path shards entries by the key's leading byte pair.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// Put atomically persists payload under key for tenant: temp file in
// the entry's shard directory, fsync, rename. A failed Put is counted
// and returned but must be treated as a durability downgrade by
// callers, never a request failure. ctx feeds the store.write fault
// site.
func (s *Store) Put(ctx context.Context, tenant, key string, payload []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	if len(tenant) > maxTenantLen {
		return fmt.Errorf("simcache: tenant name exceeds %d bytes", maxTenantLen)
	}
	err := s.put(ctx, tenant, key, payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.st.WriteErrors++
		return err
	}
	s.st.Puts++
	return nil
}

// frameEntry lays out one entry file: magic, tenant, CRC, payload.
func frameEntry(tenant string, payload []byte) []byte {
	buf := make([]byte, 0, len(storeMagic)+2+len(tenant)+4+len(payload))
	buf = append(buf, storeMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(tenant)))
	buf = append(buf, tenant...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

func (s *Store) put(ctx context.Context, tenant, key string, payload []byte) error {
	if err := faultinject.Fire(ctx, faultinject.SiteStoreWrite); err != nil {
		return fmt.Errorf("simcache: store write: %w", err)
	}
	final := s.path(key)
	shardDir := filepath.Dir(final)
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		return fmt.Errorf("simcache: store write: %w", err)
	}
	tmp, err := os.CreateTemp(shardDir, tmpPrefix+key+"-*")
	if err != nil {
		return fmt.Errorf("simcache: store write: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			_ = os.Remove(tmp.Name())
		}
	}()
	// One buffer, one Write: a crash between separate header and
	// payload writes could leave a frame whose header describes bytes
	// that never arrived, and the write syscall is the only boundary
	// the kernel promises not to tear on the way to the page cache.
	if _, err := tmp.Write(frameEntry(tenant, payload)); err != nil {
		return fmt.Errorf("simcache: store write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("simcache: store write: %w", err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		_ = os.Remove(name)
		return fmt.Errorf("simcache: store write: %w", err)
	}
	tmp = nil
	// Existence check and rename happen under one critical section (as
	// Get's quarantine path already does) so two concurrent Puts of the
	// same key cannot both observe "new" and double-count the entry; the
	// filesystem is the source of truth for what already existed.
	s.mu.Lock()
	_, statErr := os.Stat(final)
	existed := statErr == nil
	if err := os.Rename(name, final); err != nil {
		s.mu.Unlock()
		_ = os.Remove(name)
		return fmt.Errorf("simcache: store write: %w", err)
	}
	if !existed {
		s.account(tenant, int64(len(payload)), 1)
	}
	// Crash ordering: entry bytes → file fsync → rename → shard-dir
	// fsync. Without the last step the rename lives only in the page
	// cache and a crash can silently un-publish an acknowledged Put.
	// Issued inside the critical section so the DirSyncs counter moves
	// with the rename it covers.
	if err := journal.SyncDir(shardDir, (*os.File).Sync); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("simcache: store write: %w", err)
	}
	s.st.DirSyncs++
	s.mu.Unlock()
	return nil
}

// Get returns the stored payload for key. A missing entry is a plain
// miss; a short or corrupt entry is quarantined, counted, and reported
// as a miss — the caller recomputes, which is bit-identical by the
// pipeline's determinism contract.
func (s *Store) Get(key string) ([]byte, bool) {
	if validKey(key) != nil {
		return nil, false
	}
	path := s.path(key)
	tenant, payload, framed, err := readEntry(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.st.Misses++
		if !os.IsNotExist(err) {
			// Present but damaged: quarantine it and drop its footprint
			// from the gauges (best effort — if the header itself is
			// gone the tenant attribution is lost, not the safety).
			s.st.Quarantined++
			if info, statErr := os.Stat(path); statErr == nil && framed {
				payloadLen := info.Size() - int64(len(storeMagic)+2+len(tenant)+4)
				if payloadLen < 0 {
					payloadLen = 0
				}
				s.account(tenant, -payloadLen, -1)
			}
			_ = os.Rename(path, path+".corrupt")
			// Best effort: a read-only filesystem still misses safely,
			// but when the fsync lands the quarantine survives a crash.
			if journal.SyncDir(filepath.Dir(path), (*os.File).Sync) == nil {
				s.st.DirSyncs++
			}
		}
		return nil, false
	}
	s.st.Hits++
	return payload, true
}

// readEntry reads and verifies one entry file. framed reports that the
// header parsed, so tenant names the entry's owner — the anonymous
// tenant included — even when the payload fails its CRC and accounting
// must take the entry back.
func readEntry(path string) (tenant string, payload []byte, framed bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, false, err
	}
	if len(data) < len(storeMagic)+2 {
		return "", nil, false, fmt.Errorf("simcache: entry %s: short header", path)
	}
	if string(data[:len(storeMagic)]) != string(storeMagic) {
		return "", nil, false, fmt.Errorf("simcache: entry %s: bad magic", path)
	}
	rest := data[len(storeMagic):]
	tl := int(binary.LittleEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if tl > maxTenantLen || len(rest) < tl+4 {
		return "", nil, false, fmt.Errorf("simcache: entry %s: truncated", path)
	}
	tenant = string(rest[:tl])
	rest = rest[tl:]
	want := binary.LittleEndian.Uint32(rest[:4])
	payload = rest[4:]
	if crc32.ChecksumIEEE(payload) != want {
		return tenant, nil, true, fmt.Errorf("simcache: entry %s: crc mismatch", path)
	}
	return tenant, payload, true, nil
}

// TenantBytes returns tenant's resident footprint, for disk quotas.
func (s *Store) TenantBytes(tenant string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if u, ok := s.tenants[tenant]; ok {
		return u.SizeBytes
	}
	return 0
}

// Stats snapshots the store's gauges and counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.Tenants = append(st.Tenants, *s.tenants[name])
	}
	return st
}
