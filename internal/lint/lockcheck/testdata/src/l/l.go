// Package l is a lockcheck fixture: broken mutex discipline must be
// flagged; the repo's real idioms — defer unlock, branch-balanced
// unlock, *Locked helpers, select with default under a lock — must
// not.
package l

import (
	"net/http"
	"os"
	"sync"
	"time"
)

type box struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
	ch chan int
	f  *os.File
	wg sync.WaitGroup
}

// --- missing unlock on early return ---

func earlyReturnLeak(b *box, bad bool) int {
	b.mu.Lock()
	if bad {
		return -1 // want "return with b.mu still locked"
	}
	b.mu.Unlock()
	return b.n
}

func endOfFunctionLeak(b *box) {
	b.mu.Lock()
	b.n++
} // want "function end with b.mu still locked"

func panicLeak(b *box) {
	b.mu.Lock()
	if b.n < 0 {
		panic("negative") // want "panic/exit with b.mu still locked"
	}
	b.mu.Unlock()
}

// --- correct shapes ---

func deferredOK(b *box) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n > 10 {
		return 10
	}
	return b.n
}

func deferredClosureOK(b *box) {
	b.mu.Lock()
	defer func() {
		b.n = 0
		b.mu.Unlock()
	}()
	b.n++
}

func branchBalancedOK(b *box, bad bool) int {
	b.mu.Lock()
	if bad {
		b.mu.Unlock()
		return -1
	}
	n := b.n
	b.mu.Unlock()
	return n
}

// helperLocked follows the *Locked convention: the caller holds b.mu,
// so the bare unlock here is not a finding.
func helperLocked(b *box) {
	b.n++
}

func unlockForCaller(b *box) {
	// Releasing a lock acquired elsewhere (lock handoff) is ignored.
	b.mu.Unlock()
}

// --- double lock and RWMutex mixing ---

func doubleLock(b *box) {
	b.mu.Lock()
	b.mu.Lock() // want "already held on this path"
	b.mu.Unlock()
	b.mu.Unlock()
}

func upgradeDeadlock(b *box) {
	b.rw.RLock()
	b.rw.Lock() // want "lock upgrade self-deadlocks"
	b.rw.RUnlock()
}

func readWithWriteUnlock(b *box) {
	b.rw.RLock()
	b.rw.Unlock() // want "use RUnlock"
}

func writeWithReadUnlock(b *box) {
	b.rw.Lock()
	b.rw.RUnlock() // want "use Unlock"
}

func readersOK(b *box) int {
	b.rw.RLock()
	defer b.rw.RUnlock()
	return b.n
}

func twoLocksOK(b *box, o *box) {
	b.mu.Lock()
	o.mu.Lock()
	o.mu.Unlock()
	b.mu.Unlock()
}

// --- blocking operations under a lock ---

func sendUnderLock(b *box) {
	b.mu.Lock()
	b.ch <- 1 // want "sends on a channel while holding b.mu"
	b.mu.Unlock()
}

func recvUnderLock(b *box) int {
	b.mu.Lock()
	v := <-b.ch // want "receives from a channel while holding b.mu"
	b.mu.Unlock()
	return v
}

func rangeChanUnderLock(b *box) {
	b.mu.Lock()
	for v := range b.ch { // want "ranges over a channel while holding b.mu"
		b.n += v
	}
	b.mu.Unlock()
}

func selectBlocksUnderLock(b *box) {
	b.mu.Lock()
	select { // want "blocks in a select with no default while holding b.mu"
	case v := <-b.ch:
		b.n = v
	case b.ch <- 2:
	}
	b.mu.Unlock()
}

func selectWithDefaultOK(b *box) {
	b.mu.Lock()
	select {
	case b.ch <- 1:
		b.n++
	default:
	}
	b.mu.Unlock()
}

func sleepUnderLock(b *box) {
	b.mu.Lock()
	time.Sleep(time.Millisecond) // want "calls time.Sleep while holding b.mu"
	b.mu.Unlock()
}

func fsyncUnderLock(b *box) {
	b.mu.Lock()
	_ = b.f.Sync() // want "calls os.File.Sync while holding b.mu"
	b.mu.Unlock()
}

func httpUnderLock(b *box) {
	b.mu.Lock()
	_, _ = http.Get("http://example.com") // want "calls net/http.Get while holding b.mu"
	b.mu.Unlock()
}

func waitUnderLock(b *box) {
	b.mu.Lock()
	b.wg.Wait() // want "calls sync.WaitGroup.Wait while holding b.mu"
	b.mu.Unlock()
}

func blockingAfterUnlockOK(b *box) {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	b.ch <- b.n
	time.Sleep(time.Millisecond)
}
