package lint

// GoroLeak flags `go` statements whose spawned body has no provable
// termination path — the goroutine-lifecycle analyzer. A goroutine
// that parks forever leaks its stack, pins whatever it captured, and
// under the cooperative simulator wedges virtual time; the scatter-
// gather fan-outs, read-repair probes, async catch-ups, and chaos
// fleets this tree spawns are exactly the shapes where a forgotten
// drain turns into an unbounded leak.
//
// Termination is established per body by the interprocedural walk
// (see interproc.go): every blocking operation needs an escape —
// a send on a channel every make() site buffers, a receive or range
// on a channel some statement in the package closes (or one named
// like a shutdown signal: done/stop/quit/…), a select with a default
// or with a case receiving from such a channel, a WaitGroup join, a
// time.Sleep — and every `for {` loop needs a break, return, or
// never-returning call. Calls chain through the may-block facts, so a
// spawned named function is judged by its own summary, including one
// imported from another package's facts. Two shapes stay
// unknowable and are reported as such: spawning a function value, and
// a body that calls through a function value (the walk cannot see the
// callee, so it cannot see it terminate).
//
// The witness in the diagnostic is the park path: the call chain from
// the go statement to the primitive with no escape, with file:line of
// the primitive. Deliberately-detached workers are suppressed at the
// go statement with //lint:allow goroleak and a justification for why
// the lifetime is bounded by other means.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every go statement must spawn a body with a provable termination path",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) {
	if pass.ip == nil {
		return
	}
	for _, fi := range pass.ip.funcs {
		for _, sp := range fi.spawns {
			switch {
			case sp.dynamic:
				pass.Reportf(sp.pos,
					"go statement spawns a function value, whose termination is not analyzable; spawn a named function or a literal so the lifecycle can be checked")
			case sp.target != nil:
				if sp.target.parkRisk != "" {
					pass.Reportf(sp.pos,
						"goroutine has no provable termination path: %s; a goroutine parked forever leaks (add a done/close escape, buffer the channel, or bound the loop)",
						sp.target.parkRisk)
				}
			case sp.fn != nil:
				fact, ok := pass.ip.calleeFact(sp.fn)
				if ok && fact.ParkRisk != "" {
					pass.Reportf(sp.pos,
						"goroutine has no provable termination path: %s → %s; a goroutine parked forever leaks (add a done/close escape, buffer the channel, or bound the loop)",
						calleeDisplay(sp.fn), fact.ParkRisk)
				}
				// A named callee with no summary (std or unanalyzed) is
				// trusted: the analysis only vouches for module code.
			}
		}
	}
}
