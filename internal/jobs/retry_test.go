package jobs

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// transientErr is a retryable failure for tests.
type transientErr struct{}

func (transientErr) Error() string   { return "transient" }
func (transientErr) Retryable() bool { return true }

func TestPanicRecoveredAndRetried(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Drain(context.Background())
	var calls atomic.Int32
	id, err := q.SubmitSpec(Spec{Kind: "flaky", Retries: 3}, func(context.Context) (any, error) {
		if calls.Add(1) < 3 {
			panic("injected-ish")
		}
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := waitTerminal(t, q, id)
	if s.State != Succeeded || s.Result != "ok" {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Attempts != 3 {
		t.Fatalf("attempts %d, want 3", s.Attempts)
	}
	st := q.Stats()
	if st.PanicsRecovered != 2 || st.Retries != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPanicExhaustsRetryBudget(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Drain(context.Background())
	id, err := q.SubmitSpec(Spec{Kind: "doomed", Retries: 1}, func(context.Context) (any, error) {
		panic("always")
	})
	if err != nil {
		t.Fatal(err)
	}
	s := waitTerminal(t, q, id)
	if s.State != Failed {
		t.Fatalf("state %s", s.State)
	}
	if !strings.Contains(s.Error, "recovered panic: always") {
		t.Fatalf("error %q lacks the panic value", s.Error)
	}
	if s.Stack == "" || !strings.Contains(s.Stack, "goroutine") {
		t.Fatalf("stack not captured: %q", s.Stack)
	}
	if s.Attempts != 2 {
		t.Fatalf("attempts %d, want 2", s.Attempts)
	}
	// The worker survived the panics: the queue still runs work.
	id2, err := q.SubmitSpec(Spec{Kind: "after"}, func(context.Context) (any, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, q, id2); s.State != Succeeded {
		t.Fatalf("worker died: %+v", s)
	}
}

func TestRetryableErrorRetried(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Drain(context.Background())
	var calls atomic.Int32
	id, err := q.SubmitSpec(Spec{Kind: "flaky", Retries: 5}, func(context.Context) (any, error) {
		if calls.Add(1) < 4 {
			return nil, transientErr{}
		}
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := waitTerminal(t, q, id)
	if s.State != Succeeded || s.Attempts != 4 {
		t.Fatalf("snapshot %+v", s)
	}
	if st := q.Stats(); st.Retries != 3 || st.PanicsRecovered != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPlainErrorNotRetried(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Drain(context.Background())
	var calls atomic.Int32
	id, err := q.SubmitSpec(Spec{Kind: "hard", Retries: 5}, func(context.Context) (any, error) {
		calls.Add(1)
		return nil, errors.New("deterministic failure")
	})
	if err != nil {
		t.Fatal(err)
	}
	s := waitTerminal(t, q, id)
	if s.State != Failed || s.Attempts != 1 || calls.Load() != 1 {
		t.Fatalf("snapshot %+v, calls %d", s, calls.Load())
	}
	if st := q.Stats(); st.Retries != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCancelRacesPanickingWorker covers the satellite case: a job that
// keeps panicking is canceled mid-recovery/backoff. The job must reach
// exactly one terminal state (canceled), with no double-completion
// visible in the counters or the retention list.
func TestCancelRacesPanickingWorker(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Drain(context.Background())
	started := make(chan struct{})
	var once atomic.Bool
	id, err := q.SubmitSpec(Spec{Kind: "panicky", Retries: 1000}, func(context.Context) (any, error) {
		if once.CompareAndSwap(false, true) {
			close(started)
		}
		panic("thrash")
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !q.Cancel(id) {
		t.Fatal("cancel refused")
	}
	s := waitTerminal(t, q, id)
	if s.State != Canceled {
		t.Fatalf("state %s, want canceled", s.State)
	}
	// Give any straggling retry machinery time to misbehave, then
	// verify the terminal accounting happened exactly once.
	time.Sleep(50 * time.Millisecond)
	st := q.Stats()
	if st.Canceled != 1 || st.Failed != 0 || st.Succeeded != 0 {
		t.Fatalf("double completion: %+v", st)
	}
	if s2, ok := q.Get(id); !ok || s2.State != Canceled {
		t.Fatalf("terminal state changed: %+v", s2)
	}
	if q.Cancel(id) {
		t.Fatal("cancel of terminal job accepted")
	}
}

// TestCancelQueuedThenWorkerArrives pins the other side of the race: a
// job canceled while queued is finished by Cancel itself; when the
// worker later dequeues it, it must not run or re-finish it.
func TestCancelQueuedThenWorkerArrives(t *testing.T) {
	q := New(Config{Workers: 1, Capacity: 4})
	defer q.Drain(context.Background())
	block := make(chan struct{})
	if _, err := q.SubmitSpec(Spec{Kind: "blocker"}, func(context.Context) (any, error) {
		<-block
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	id, err := q.SubmitSpec(Spec{Kind: "victim", Retries: 3}, func(context.Context) (any, error) {
		panic("must never run")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !q.Cancel(id) {
		t.Fatal("cancel refused")
	}
	close(block)
	s := waitTerminal(t, q, id)
	if s.State != Canceled {
		t.Fatalf("state %s", s.State)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Canceled != 1 || st.PanicsRecovered != 0 {
		t.Fatalf("canceled queued job ran: %+v", st)
	}
}

func TestBackoffBoundedAndJittered(t *testing.T) {
	jr := jitterStream("job-backoff-test")
	for attempt := 0; attempt < 10; attempt++ {
		d := Backoff(attempt, jr)
		if d <= 0 || d > maxBackoff {
			t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, maxBackoff)
		}
	}
	if d := Backoff(0, jr); d < baseBackoff/2 || d > baseBackoff {
		t.Fatalf("first backoff %v outside [%v, %v]", d, baseBackoff/2, baseBackoff)
	}
}

func TestBackoffDeterministicPerJobID(t *testing.T) {
	// Regression note for the detrand rework: jitter used to come from
	// the global math/rand/v2 state; it now derives from the job id, so
	// the same id must replay the same sleep schedule and distinct ids
	// must decorrelate.
	a1, a2 := jitterStream("job-a"), jitterStream("job-a")
	b := jitterStream("job-b")
	same, diff := true, false
	for attempt := 0; attempt < 8; attempt++ {
		d1, d2, d3 := Backoff(attempt, a1), Backoff(attempt, a2), Backoff(attempt, b)
		if d1 != d2 {
			same = false
		}
		if d1 != d3 {
			diff = true
		}
	}
	if !same {
		t.Fatal("same job id produced different backoff schedules")
	}
	if !diff {
		t.Fatal("distinct job ids produced identical backoff schedules (streams not decorrelated)")
	}
}
