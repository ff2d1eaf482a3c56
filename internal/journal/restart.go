package journal

import (
	"context"
	"encoding/json"
	"fmt"
)

// Appender is the slice of Writer a journaled state machine appends
// through; tests observe or fail appends through it.
type Appender interface {
	Append(ctx context.Context, payload []byte) error
}

// Record is a state machine's one record append: JSON-encode rec, append
// it to a, count a failure in *failed. The caller holds the lock its
// transitions are applied under, so the log's order is theirs. A nil a
// records nothing: no durability, or a replay (Restart replays before a
// writer exists).
func Record(a Appender, rec any, failed *uint64) error {
	if a == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err == nil {
		err = a.Append(context.Background(), b)
	}
	if err != nil {
		*failed++
	}
	return err
}

// Restart is the one restart procedure of a journaled state machine
// over dir. replay folds the log into the caller's state strictly before
// the writer opens, so a crash's torn tail is found while its segment is
// still the log's last. Then rejournal re-journals the live state
// through the new writer, returning nil only if that was all of it, and
// the pre-restart segments are dropped only if it did, no append through
// the writer failed meanwhile, and the writer synced; otherwise they stay
// the durable copy and kept says why. err is a failed replay or open,
// with w nil.
func Restart(ctx context.Context, dir string, replay func(ctx context.Context, dir string) (ReplayStats, error),
	rejournal func(w *Writer) error) (w *Writer, st ReplayStats, kept, err error) {
	if st, err = replay(ctx, dir); err != nil {
		return nil, st, nil, err
	}
	if w, err = Open(dir, Options{}); err != nil {
		return nil, st, nil, err
	}
	failed := w.Stats().AppendErrors
	kept = rejournal(w)
	if n := w.Stats().AppendErrors - failed; kept == nil && n > 0 {
		kept = fmt.Errorf("journal: %d appends failed while re-journaling", n)
	}
	if kept == nil {
		kept = w.Sync(ctx)
	}
	if kept == nil {
		_, kept = w.CompactBefore()
	}
	return w, st, kept, nil
}
