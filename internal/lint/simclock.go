package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// SimClock enforces the simulation's virtual-clock discipline: code in
// a package that imports the discrete-event simulator never waits on
// the wall clock. (*sim.Proc).Sleep yields to the scheduler and virtual
// time advances; time.Sleep blocks the OS thread, stalls every
// simulated process sharing it, and measures nothing. The timer
// constructors — time.After, Tick, NewTimer, NewTicker, AfterFunc —
// arm a real-clock firing: a channel that becomes ready while virtual
// time stands still, an event the simulation never scheduled. Lease
// expiries, pacing and fault windows must be expressed in the clock the
// code under test actually runs on. time.Now is allowed: reading the
// clock schedules nothing.
var SimClock = &Analyzer{
	Name: "simclock",
	Doc:  "packages using the simulator must wait in virtual time: no time.Sleep or wall-clock timers",
	Run:  runSimClock,
}

// simClockForbidden is the set of time-package functions that wait on
// the wall clock or arm a timer on it.
var simClockForbidden = map[string]bool{
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

func runSimClock(pass *Pass) {
	if !importsSim(pass.Files) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !simClockForbidden[sel.Sel.Name] {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" && id.Obj == nil {
				pass.Reportf(call.Pos(),
					"time.%s in simulation code: wait in virtual time ((*sim.Proc).Sleep), not on the wall clock", sel.Sel.Name)
			}
			return true
		})
	}
}

// importsSim reports whether any of the files imports the simulator
// package (piql/internal/sim, or any path ending in /internal/sim so
// fixture modules qualify).
func importsSim(files []*ast.File) bool {
	for _, f := range files {
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil &&
				(path == "piql/internal/sim" || strings.HasSuffix(path, "/internal/sim")) {
				return true
			}
		}
	}
	return false
}
