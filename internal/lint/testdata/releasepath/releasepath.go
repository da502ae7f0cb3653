// Test fixture for the releasepath analyzer: every acquire must
// release on all exits. Early returns that skip the unlock, holds
// never released at all, and unbalanced beginOp/endOp-style claims are
// flagged at the leaking exit; the defer idiom and balanced paths stay
// silent.
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
		return 0 // want `mutex .*guarded\.mu is still held at this return but released on another path`
	}
	v := g.v
	g.mu.Unlock()
	return v
}

// okBalanced: both paths unlock before returning.
func okBalanced(g *guarded, bad bool) int {
	g.mu.Lock()
	if bad {
		g.mu.Unlock()
		return 0
	}
	v := g.v
	g.mu.Unlock()
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
		return 0 // want `mutex .*guarded\.mu is still held at this return but released on another path`
	}
	defer g.mu.Unlock()
	return g.v
}

// leakNeverReleased: no path unlocks; either a total leak or an
// acquire-helper that must declare itself with //lint:allow.
func leakNeverReleased(g *guarded) {
	g.mu.Lock()
} // want `mutex .*guarded\.mu is never released on any path through .*leakNeverReleased`

// leakRLock: the shared side leaks the same way.
func leakRLock(g *guarded, bad bool) int {
	g.rw.RLock()
	if bad {
		return 0 // want `mutex .*guarded\.rw is still held at this return but released on another path`
	}
	v := g.v
	g.rw.RUnlock()
	return v
}

// routing-claim pair: beginOp hands out a routing-table claim that
// endOp must return (see claimPairs in interproc.go).
type table struct{ gen int }

func beginOp(t *table) int  { return t.gen }
func endOp(t *table, g int) { _ = g }

// leakClaimEarlyReturn: the claim from beginOp is not returned on the
// error path — the old routing table would be pinned forever.
func leakClaimEarlyReturn(t *table, bad bool) int {
	g := beginOp(t)
	if bad {
		return 0 // want `claim .*beginOp/endOp is still held at this return but released on another path`
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

// allowAcquireHelper: an intentional lock-and-return helper carries a
// directive naming the contract.
//
//lint:allow releasepath — fixture: acquire-helper contract, callers must release
func allowAcquireHelper(g *guarded) {
	g.mu.Lock()
}

// leakBothRows: the exit's held set carries the lock twice — the shared
// row from one branch, the exclusive row from the other — and each row
// words the same finding at the same return. It is reported once.
func leakBothRows(g *guarded, exclusive bool) {
	if exclusive {
		g.rw.Lock()
	} else {
		g.rw.RLock()
	}
	return // want `mutex .*guarded\.rw is never released on any path`
}
