package journal

import "os"

// SetFsync replaces the writer's fsync seam. It exists only in test
// builds, for the external tests (service_test.go) that drive the jobs
// queue over a real writer; call it before the first Append.
func (w *Writer) SetFsync(fn func(*os.File) error) { w.fsync = fn }

// OpenSized is Open with a writer that rotates once a segment reaches
// segment bytes instead of 4 MiB, so tests see rotations without
// writing megabytes.
func OpenSized(dir string, opts Options, segment int64) (*Writer, error) {
	w, err := Open(dir, opts)
	if w != nil {
		w.rotateAt = segment
	}
	return w, err
}

// WaitCommitter returns once no background fsync is running or being
// accounted.
func (w *Writer) WaitCommitter() { w.committer.Wait() }

// SetPoisonViews makes every Replay overwrite a record's bytes once the
// callback has returned, so the external tests (view_test.go) catch a
// layer above that keeps a view instead of a copy. Not for parallel
// tests.
func SetPoisonViews(on bool) { poisonViews = on }
