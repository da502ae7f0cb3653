package lint

// ReleasePath verifies, branch-sensitively, that every acquire has a
// release on *all* exits of the acquiring function — the
// release-on-all-paths analyzer. It reads the same held-lock walk as
// lockorder/holdblock, but instead of asking what is held at blocking
// points it asks what is still held at each return:
//
//   - a mutex (or RWMutex side) held at one return but released on
//     another path is an early-return leak — the classic
//     `mu.Lock(); if err { return }` bug — reported at the leaking
//     return;
//   - a mutex held at a return and never released anywhere is either a
//     total leak or an intentional acquire-helper; it is reported too,
//     and a justified helper carries //lint:allow releasepath;
//   - paired-call claims (the kvstore beginOp/endOp routing claim —
//     see claimPairs in interproc.go) are tracked exactly like locks:
//     a routing snapshot whose refcount is never returned pins the old
//     table across a rebalance forever.
//
// defer'd Unlock/RUnlock/endOp marks the hold released on every exit,
// so the defer idiom passes without special cases. The check is per
// function: a helper's hold is not carried into its callers, and no
// product code has an acquire-helper.
var ReleasePath = &Analyzer{
	Name: "releasepath",
	Doc:  "every acquire (mutex, claim) must release on all exits",
	Run:  runReleasePath,
}

func runReleasePath(pass *Pass) {
	if pass.ip == nil {
		return
	}
	for _, fi := range pass.ip.funcs {
		// The two-pass loop walk can surface the same leak under both the
		// shared and exclusive rows of a union: the same report twice,
		// which RunUnit keeps once.
		for _, e := range fi.exits {
			for _, l := range e.held {
				if l.deferred {
					continue
				}
				what := "mutex " + l.id
				if l.kind == kindClaim {
					what = fi.claimNames[l.id]
					if what == "" {
						what = "claim " + l.id
					}
				}
				if fi.releasedIDs[l.id] {
					pass.Reportf(e.pos,
						"%s is still held at this return but released on another path; release it on every exit or defer the release",
						what)
				} else {
					pass.Reportf(e.pos,
						"%s is never released on any path through %s; callers inherit the hold (an intentional acquire-helper needs //lint:allow releasepath naming the contract)",
						what, fi.display)
				}
			}
		}
	}
}
