package lint

import (
	"strconv"
	"strings"
)

// HoldBlock flags code that can block while holding a mutex
// exclusively — the exact shape of the PR 4–7 hangs that chaos storms
// only caught by luck. Blocking here means: a channel send or receive,
// a select with no default, sync.Cond.Wait, sync.WaitGroup.Wait,
// time.Sleep, a call into another package made on or passed a
// *sim.Proc, *sim.Resource or *kvstore.Client (every park in the tree
// goes through one: (*kvstore.Client).Read parks the simulated process
// in sim.Resource.Use), or a call to a function of the same package
// whose summary says it may do one of those.
//
// Under the cooperative simulator the stakes are total: a process that
// parks while holding a mutex freezes virtual time for the whole
// cluster if any other process needs that mutex to advance. Shared
// (RLock) holds are deliberately not reported — the engine holds
// writeGate.RLock across entire query executions by design, and
// writers take the other side with a cooperative TryLock spin.
var HoldBlock = &Analyzer{
	Name: "holdblock",
	Doc:  "never block (channel op, Wait, Sleep, a park, or a may-block call) while holding a mutex",
	Run:  runHoldBlock,
}

func runHoldBlock(pass *Pass) {
	if pass.ip == nil {
		return
	}
	for _, fi := range pass.ip.funcs {
		for _, obs := range fi.blocksDirect {
			hl := &held{locks: obs.held}
			if excl := hl.exclusiveIDs(); len(excl) > 0 {
				pass.Reportf(obs.pos,
					"%s while holding %s; blocking under a mutex can wedge every goroutine that needs it (move the blocking op outside the critical section)",
					obs.desc, joinHeld(excl))
			}
		}
		for _, c := range fi.calls {
			hl := &held{locks: c.held}
			excl := hl.exclusiveIDs()
			if len(excl) == 0 {
				continue
			}
			callee := pass.ip.byObj[c.fn]
			if callee == nil || !callee.mayBlock {
				continue
			}
			pass.Reportf(c.pos,
				"call to %s may block (via %s) while holding %s; release the mutex before the call",
				calleeDisplay(c.fn), callee.blockPath, joinHeld(excl))
		}
	}
}

// joinHeld renders a held-lock list for a message, capping the tail.
func joinHeld(ids []string) string {
	if len(ids) <= 2 {
		return strings.Join(ids, " and ")
	}
	return strings.Join(ids[:2], ", ") + " (+" + strconv.Itoa(len(ids)-2) + " more)"
}
