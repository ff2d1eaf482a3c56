package journal

import "os"

// SetFsync replaces the writer's fsync seam. It exists only in test
// builds, for the external tests (service_test.go) that drive the jobs
// queue over a real writer; call it before the first Append.
func (w *Writer) SetFsync(fn func(*os.File) error) { w.fsync = fn }

// WaitCommitter returns once no background fsync is running or being
// accounted.
func (w *Writer) WaitCommitter() { w.committer.Wait() }
