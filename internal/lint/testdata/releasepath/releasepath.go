// Test fixture for the releasepath analyzer: every acquire is released
// in its own block, by a defer or by a direct statement, with no exit
// in between. An early return, break or continue before the release is
// flagged where it leaves; an acquire with no release among the later
// statements of its block is flagged at the acquire, even when every
// path happens to release it in an inner block.
package releasepathfix

import "sync"

type guarded struct {
	mu sync.Mutex
	rw sync.RWMutex
	v  int
}

// leakEarlyReturn: the classic bug — the error path returns with the
// mutex held while the happy path unlocks.
func leakEarlyReturn(g *guarded, bad bool) int {
	g.mu.Lock()
	if bad {
		return 0 // want `mutex g\.mu is still held at this return`
	}
	v := g.v
	g.mu.Unlock()
	return v
}

// okBalanced releases in each branch, so every path balances; but the
// section is no longer readable at its acquire — the early return still
// leaves the block between the acquire and its release.
func okBalanced(g *guarded, bad bool) int {
	g.mu.Lock()
	if bad {
		g.mu.Unlock()
		return 0 // want `mutex g\.mu is still held at this return`
	}
	v := g.v
	g.mu.Unlock()
	return v
}

// okDecideThenBranch is okBalanced's shape under the rule: decide under
// the lock, release, then branch.
func okDecideThenBranch(g *guarded, bad bool) int {
	g.mu.Lock()
	v := g.v
	g.mu.Unlock()
	if bad {
		return 0
	}
	return v
}

// okDeferred: defer releases on every exit, early returns included.
func okDeferred(g *guarded, bad bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if bad {
		return 0
	}
	return g.v
}

// leakBeforeDefer: the defer is registered after an early return has
// already leaked the hold — statement order matters.
func leakBeforeDefer(g *guarded, bad bool) int {
	g.mu.Lock()
	if bad {
		return 0 // want `mutex g\.mu is still held at this return`
	}
	defer g.mu.Unlock()
	return g.v
}

// leakNeverReleased: no statement unlocks; either a total leak or an
// acquire-helper that must declare itself with //lint:allow.
func leakNeverReleased(g *guarded) {
	g.mu.Lock() // want `mutex g\.mu is not released in its own block`
}

// leakRLock: the shared side leaks the same way.
func leakRLock(g *guarded, bad bool) int {
	g.rw.RLock()
	if bad {
		return 0 // want `mutex g\.rw is still held at this return`
	}
	v := g.v
	g.rw.RUnlock()
	return v
}

// leakWrongSide: the exclusive side is not released by RUnlock.
func leakWrongSide(g *guarded) int {
	g.rw.Lock() // want `mutex g\.rw is not released in its own block`
	v := g.v
	g.rw.RUnlock()
	return v
}

// routing-claim pair: beginOp hands out a routing-table claim that
// endOp must return.
type table struct{ gen int }

func beginOp(t *table) int  { return t.gen }
func endOp(t *table, g int) { _ = g }

// leakClaimEarlyReturn: the claim from beginOp is not returned on the
// error path — the old routing table would be pinned forever.
func leakClaimEarlyReturn(t *table, bad bool) int {
	g := beginOp(t)
	if bad {
		return 0 // want `claim beginOp/endOp is still held at this return`
	}
	endOp(t, g)
	return g
}

// okClaimDeferred: deferring the endOp balances every exit.
func okClaimDeferred(t *table, bad bool) int {
	g := beginOp(t)
	defer endOp(t, g)
	if bad {
		return 0
	}
	return g
}

// leakClaimInExpression: an acquire buried in an expression has no
// block of its own to release it.
func leakClaimInExpression(t *table) int {
	if g := beginOp(t); g > 0 { // want `claim beginOp/endOp is acquired outside statement position`
		return g
	}
	return 0
}

// allowAcquireHelper: an intentional lock-and-return helper carries a
// directive naming the contract.
//
//lint:allow releasepath — fixture: acquire-helper contract, callers must release
func allowAcquireHelper(g *guarded) {
	g.mu.Lock()
}

// leakBothRows: each side is acquired in its own branch and released
// in neither, so each acquire is a finding of its own.
func leakBothRows(g *guarded, exclusive bool) {
	if exclusive {
		g.rw.Lock() // want `mutex g\.rw is not released in its own block`
	} else {
		g.rw.RLock() // want `mutex g\.rw is not released in its own block`
	}
}

// leakReleaseInInnerBlock: the only release sits in an inner block, so
// no statement of the acquire's block releases it.
func leakReleaseInInnerBlock(g *guarded, bad bool) {
	g.mu.Lock() // want `mutex g\.mu is not released in its own block`
	if !bad {
		g.mu.Unlock()
	}
}

// leakBreakOutOfLoop: the break leaves the loop's body, and with it the
// block the acquire and its release share.
func leakBreakOutOfLoop(g *guarded, n int) {
	for i := 0; i < n; i++ {
		g.mu.Lock()
		if g.v > i {
			break // want `mutex g\.mu is still held at this break`
		}
		g.v++
		g.mu.Unlock()
	}
}

// leakContinue: the continue starts the next iteration with the hold
// still taken — the next Lock self-deadlocks.
func leakContinue(t *table, keys []int) {
	for _, k := range keys {
		g := beginOp(t)
		if k < 0 {
			continue // want `claim beginOp/endOp is still held at this continue`
		}
		endOp(t, g)
	}
}

// okReturnInFuncLit: the literal's return leaves the literal, not the
// block; the literal runs after the release here.
func okReturnInFuncLit(g *guarded) func() int {
	g.mu.Lock()
	f := func() int {
		return g.v
	}
	g.mu.Unlock()
	return f
}

// okBreakOfNestedSwitch: the break ends the switch, and control reaches
// the release.
func okBreakOfNestedSwitch(g *guarded, k int) {
	g.mu.Lock()
	switch k {
	case 0:
		break
	default:
		g.v = k
	}
	g.mu.Unlock()
}

// okBreakOfNestedLoop: the break ends the inner loop, not the section.
func okBreakOfNestedLoop(g *guarded, vs []int) {
	g.mu.Lock()
	for _, v := range vs {
		if v < 0 {
			break
		}
		g.v += v
	}
	g.mu.Unlock()
}

// notASyncLock: a Lock method of another type is not an acquire.
type fakeLock struct{}

func (fakeLock) Lock() {}

func notASyncLock(l fakeLock) {
	l.Lock()
}

// leakOtherMutex: releasing a different mutex does not end the section.
func leakOtherMutex(a, b *guarded) {
	a.mu.Lock() // want `mutex a\.mu is not released in its own block`
	a.v++
	b.mu.Unlock()
}

// leakInCase: a case clause's statements are a block of their own.
func leakInCase(g *guarded, k int) int {
	switch k {
	case 0:
		g.mu.Lock()
		if g.v < 0 {
			return 0 // want `mutex g\.mu is still held at this return`
		}
		g.mu.Unlock()
	}
	return k
}
