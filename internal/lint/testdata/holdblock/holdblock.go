// Test fixture for the holdblock analyzer: blocking operations —
// directly or through a callee that may block — while a mutex is held
// exclusively. Shared (RLock) holds and plain spawns stay silent.
package holdblockfix

import (
	"sync"
	"time"

	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/sim"
)

type box struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
	wg sync.WaitGroup
}

func sendUnderMutex(b *box) {
	b.mu.Lock()
	b.ch <- 1 // want `channel send while holding`
	b.mu.Unlock()
}

func recvUnderMutex(b *box) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return <-b.ch // want `channel receive while holding`
}

func sleepUnderMutex(b *box) {
	b.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding`
	b.mu.Unlock()
}

func waitUnderMutex(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.wg.Wait() // want `sync.WaitGroup.Wait while holding`
}

// blockingHelper blocks with nothing held: fine on its own, but its
// summary says "may block", so calling it under a mutex is not.
func blockingHelper(b *box) {
	b.ch <- 2
}

func callBlockerUnderMutex(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	blockingHelper(b) // want `may block .* while holding`
}

// sendAfterUnlock releases before blocking: the critical section is
// over, no diagnostic.
func sendAfterUnlock(b *box) {
	b.mu.Lock()
	b.mu.Unlock()
	b.ch <- 3
}

// sendUnderRLock: shared holds are excluded by design (the engine
// holds its write gate shared across whole executions).
func sendUnderRLock(b *box) {
	b.rw.RLock()
	defer b.rw.RUnlock()
	b.ch <- 4
}

// spawnUnderMutex: the goroutine blocks, the spawner does not.
func spawnUnderMutex(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		b.ch <- 5
	}()
}

// branchRelease unlocks on the early-return path before blocking and
// keeps the lock on the other: only the held path is flagged.
func branchRelease(b *box, early bool) {
	b.mu.Lock()
	if early {
		b.mu.Unlock()
		b.ch <- 6
		return
	}
	b.ch <- 7 // want `channel send while holding`
	b.mu.Unlock()
}

// loopUnderMutex: a loop body is walked twice (so holds acquired late in
// the body reach its head on the second pass), but a blocking operation
// or call inside it is still one finding, not one per pass.
func loopUnderMutex(b *box, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i < n; i++ {
		b.ch <- i         // want `channel send while holding`
		blockingHelper(b) // want `may block .* while holding`
	}
}

// parkUnderMutex: every simulated park goes through a *sim.Proc, so a
// call on one while the mutex is held blocks like a channel send.
func parkUnderMutex(b *box, p *sim.Proc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p.Yield() // want `sim\.\(\*Proc\)\.Yield .*\*sim\.Proc.* while holding`
}

// clientUnderMutex: a call into another package handed a
// *kvstore.Client may send requests that park the client's process —
// the shape of the engine's writer drain.
func clientUnderMutex(b *box, m *index.Maintainer, cl *kvstore.Client) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return m.VerifyBuildSuspects(cl, nil, kvstore.Version{}, nil) // want `VerifyBuildSuspects .*\*kvstore\.Client.* while holding`
}

// lockLateInLoop: the first pass reaches the send with nothing held, the
// second with the lock the previous iteration left held — the finding
// comes from the pass that saw it.
func lockLateInLoop(b *box, n int) {
	for i := 0; i < n; i++ {
		b.ch <- i // want `channel send while holding`
		b.mu.Lock()
	}
}
