// Package d is a durio fixture: broken
// durability ordering must be flagged; the repo's full publish idiom —
// write temp, Sync, checked Close, rename, syncDir — must not.
package d

import (
	"os"
	"path/filepath"
)

// syncDir is the parent-directory fsync idiom the analyzer recognizes
// by name.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- the correct publish sequence ---

func publishOK(dir string, payload []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(payload); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return err
	}
	tmp = nil
	if err := os.Rename(name, filepath.Join(dir, "final")); err != nil {
		return err
	}
	return syncDir(dir)
}

// --- missing file sync before the publish rename ---

func publishNoFileSync(dir string, payload []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(payload); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, "final")); err != nil { // want "no File.Sync before the rename"
		return err
	}
	return syncDir(dir)
}

// --- rename without a parent-directory fsync ---

func renameNoDirSync(dir string) error {
	return os.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")) // want "not followed by a parent-directory fsync"
}

// --- discarded write-path Close ---

func discardedCloses(dir string, payload []byte) {
	f, _ := os.Create(filepath.Join(dir, "x"))
	f.Write(payload)
	f.Close() // want "Close error of a file opened for writing is discarded"

	g, _ := os.Create(filepath.Join(dir, "y"))
	defer g.Close() // want "defer discards the Close error"
	g.Write(payload)

	h, _ := os.Create(filepath.Join(dir, "z"))
	h.Write(payload)
	_ = h.Close() // want "explicitly discarded"
}

func readCloseOK(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only open: a discarded Close loses nothing
	buf := make([]byte, 16)
	_, err = f.Read(buf)
	return buf, err
}

// --- torn frames: header and payload in separate writes ---

func tornFrame(dir string, hdr, payload []byte) error {
	f, err := os.Create(filepath.Join(dir, "rec"))
	if err != nil {
		return err
	}
	if _, err := f.Write(hdr); err != nil {
		return err
	}
	if _, err := f.Write(payload); err != nil { // want "record framed across 2 Write calls"
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

func singleFrameOK(dir string, hdr, payload []byte) error {
	f, err := os.Create(filepath.Join(dir, "rec"))
	if err != nil {
		return err
	}
	rec := append(append([]byte(nil), hdr...), payload...)
	if _, err := f.Write(rec); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}
