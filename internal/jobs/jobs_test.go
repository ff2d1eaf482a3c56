package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, q *Queue, id string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, ok := q.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if s.State.Terminal() {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, s.State)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitRunsToSuccess(t *testing.T) {
	q := New(Config{Workers: 2})
	defer q.Drain(context.Background())
	id, err := q.SubmitSpec(Spec{Kind: "test"}, func(context.Context) (any, error) {
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := waitTerminal(t, q, id)
	if s.State != Succeeded || s.Result != 42 || s.Error != "" {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Started == nil || s.Finished == nil {
		t.Fatalf("timestamps missing: %+v", s)
	}
	if st := q.Stats(); st.Succeeded != 1 || st.Submitted != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFailureSurfaces(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Drain(context.Background())
	id, err := q.SubmitSpec(Spec{Kind: "test"}, func(context.Context) (any, error) {
		return nil, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	s := waitTerminal(t, q, id)
	if s.State != Failed || s.Error != "boom" {
		t.Fatalf("snapshot %+v", s)
	}
}

func TestQueueFullRejects(t *testing.T) {
	q := New(Config{Workers: 1, Capacity: 1})
	defer q.Drain(context.Background())
	block := make(chan struct{})
	wait := func(context.Context) (any, error) { <-block; return nil, nil }
	// First job occupies the worker, second fills the queue; the
	// worker may not have picked the first up yet, so allow one retry.
	if _, err := q.SubmitSpec(Spec{Kind: "a"}, wait); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := q.SubmitSpec(Spec{Kind: "b"}, wait); err != nil {
		t.Fatal(err)
	}
	if _, err := q.SubmitSpec(Spec{Kind: "c"}, wait); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit: %v", err)
	}
	if st := q.Stats(); st.Rejected != 1 {
		t.Fatalf("stats %+v", st)
	}
	close(block)
}

func TestTimeoutCancelsJob(t *testing.T) {
	q := New(Config{Workers: 1, Timeout: 20 * time.Millisecond})
	defer q.Drain(context.Background())
	id, err := q.SubmitSpec(Spec{Kind: "slow"}, func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := waitTerminal(t, q, id)
	if s.State != Canceled {
		t.Fatalf("state %s, want canceled", s.State)
	}
}

func TestCancelRunningJob(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Drain(context.Background())
	started := make(chan struct{})
	id, err := q.SubmitSpec(Spec{Kind: "slow"}, func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
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
	if q.Cancel(id) {
		t.Fatal("cancel of terminal job accepted")
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
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
	ran := false
	id, err := q.SubmitSpec(Spec{Kind: "victim"}, func(context.Context) (any, error) {
		ran = true
		return nil, nil
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
	if ran {
		t.Fatal("canceled queued job still ran")
	}
}

func TestDrainFinishesQueuedWork(t *testing.T) {
	q := New(Config{Workers: 2, Capacity: 16})
	var mu sync.Mutex
	done := 0
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		id, err := q.SubmitSpec(Spec{Kind: "work"}, func(context.Context) (any, error) {
			time.Sleep(time.Millisecond)
			mu.Lock()
			done++
			mu.Unlock()
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if done != 8 {
		t.Fatalf("drain lost work: %d/8 done", done)
	}
	if _, err := q.SubmitSpec(Spec{Kind: "late"}, func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v", err)
	}
	for _, id := range ids {
		if s, ok := q.Get(id); !ok || s.State != Succeeded {
			t.Fatalf("job %s after drain: %+v", id, s)
		}
	}
}

func TestDrainHonorsContext(t *testing.T) {
	q := New(Config{Workers: 1})
	block := make(chan struct{})
	defer close(block)
	if _, err := q.SubmitSpec(Spec{Kind: "stuck"}, func(context.Context) (any, error) {
		<-block
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with stuck job: %v", err)
	}
}

func TestRetentionForgetsOldest(t *testing.T) {
	q := New(Config{Workers: 1, Capacity: 16, Retain: 2})
	ids := make([]string, 0, 4)
	for i := 0; i < 4; i++ {
		id, err := q.SubmitSpec(Spec{Kind: "w"}, func(context.Context) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		waitTerminal(t, q, id)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[:2] {
		if _, ok := q.Get(id); ok {
			t.Fatalf("job %s retained beyond bound", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := q.Get(id); !ok {
			t.Fatalf("recent job %s forgotten", id)
		}
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	q := New(Config{Workers: 4, Capacity: 256})
	var wg sync.WaitGroup
	ids := make(chan string, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				id, err := q.SubmitSpec(Spec{Kind: "w"}, func(context.Context) (any, error) { return "ok", nil })
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids <- id
			}
		}()
	}
	wg.Wait()
	close(ids)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for id := range ids {
		if s, ok := q.Get(id); !ok || s.State != Succeeded {
			t.Fatalf("job %s: %+v", id, s)
		}
	}
	if st := q.Stats(); st.Succeeded != 64 || st.Submitted != 64 {
		t.Fatalf("stats %+v", st)
	}
}

func TestUnknownJob(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Drain(context.Background())
	if _, ok := q.Get("nope"); ok {
		t.Fatal("unknown id found")
	}
	if q.Cancel("nope") {
		t.Fatal("unknown id canceled")
	}
}
