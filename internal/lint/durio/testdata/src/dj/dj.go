// Package dj is the journal-rules durio fixture (registered in
// durio.JournalPackages): inside the journal, the only legal rename is
// quarantine to *.corrupt.
package dj

import (
	"os"
	"path/filepath"
)

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

func quarantineOK(path string) error {
	if err := os.Rename(path, path+".corrupt"); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

func clobberingRename(dir string) error {
	err := os.Rename(filepath.Join(dir, "wal-1.seg"), filepath.Join(dir, "wal-2.seg")) // want "can clobber a live segment" "not followed by a parent-directory fsync"
	return err
}
