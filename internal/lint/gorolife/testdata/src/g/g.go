// Package g is a gorolife fixture: untied goroutines and
// uncancellable polling loops must be flagged; goroutines tied to a
// context, WaitGroup or channel must not.
package g

import (
	"context"
	"sync"
	"time"
)

type pool struct {
	wg   sync.WaitGroup
	work chan int
	quit chan struct{}
}

// --- positives -------------------------------------------------------

func untied() {
	go func() { // want "goroutine has no lifecycle tie"
		for {
			_ = 1 + 1
		}
	}()
}

func untiedNamed() {
	go spin() // want "goroutine has no lifecycle tie"
}

func spin() {
	for i := 0; ; i++ {
		_ = i
	}
}

func (p *pool) untiedMethod() {
	go p.orphan() // want "goroutine has no lifecycle tie"
}

func (p *pool) orphan() {
	x := 0
	for {
		x++
	}
}

func externalNoArgs() {
	go time.Sleep(time.Second) // want "external function with no context, channel or WaitGroup argument"
}

func sleepPoll(done *bool) {
	for !*done { // want "polling loop sleeps with no cancellation check"
		time.Sleep(10 * time.Millisecond)
	}
}

func sleepPollForever() {
	for { // want "polling loop sleeps with no cancellation check"
		time.Sleep(time.Second)
		_ = probe()
	}
}

func probe() bool { return true }

// --- negatives -------------------------------------------------------

func ctxTied(ctx context.Context) {
	go func() {
		for ctx.Err() == nil {
			_ = probe()
		}
	}()
}

func ctxSelectTied(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			default:
			}
		}
	}()
}

func (p *pool) wgTied() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_ = probe()
	}()
}

func (p *pool) chanTied() {
	go func() {
		for range p.work {
			_ = probe()
		}
	}()
}

func (p *pool) quitTied() {
	go func() {
		for {
			select {
			case <-p.quit:
				return
			case v := <-p.work:
				_ = v
			}
		}
	}()
}

func (p *pool) namedWorker() {
	go p.worker()
}

func (p *pool) worker() {
	for v := range p.work {
		_ = v
	}
}

func closeTied(ready chan struct{}) {
	go func() {
		_ = probe()
		close(ready)
	}()
}

func externalWithCtx(ctx context.Context, run func(context.Context)) {
	go run(ctx)
}

// A context minted inside the body (the releaseOnExit idiom: the
// goroutine parks on a blocking wait that takes a context) counts —
// the context expression is a call result, not an ident.
func backgroundWaitTied(wait func(context.Context) error) {
	go func() {
		_ = wait(context.Background())
	}()
}

func externalWithChan(drain func(<-chan int), ch chan int) {
	go drain(ch)
}

func sleepWithCtx(ctx context.Context) {
	for ctx.Err() == nil {
		time.Sleep(10 * time.Millisecond)
	}
}

func sleepWithChan(quit chan struct{}) {
	for {
		select {
		case <-quit:
			return
		default:
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A closure inside the loop body that sleeps is its own scope, not the
// loop polling.
func closureSleepOK(fs []func()) {
	for _, f := range fs {
		g := func() { time.Sleep(time.Millisecond) }
		g()
		f()
	}
}
