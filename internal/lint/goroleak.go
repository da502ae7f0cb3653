package lint

import "go/ast"

// GoroLeak is the goroutine census: every `go` statement in non-test
// code is a finding unless it carries //lint:allow goroleak naming what
// bounds the goroutine's lifetime — the scheduler that unwinds it, the
// WaitGroup that joins it, the loop that ends it. A goroutine that
// parks forever leaks its stack, pins whatever it captured, and under
// the cooperative simulator wedges virtual time; the tree spawns few
// goroutines, so each is argued for at its site rather than proved
// terminating by a walk that could only vouch for the shapes it models.
// A new spawn fails the gate until someone writes its argument down,
// and a directive left behind by a deleted spawn is reported stale.
//
// The census is syntactic: the spawned body is not inspected here (a
// literal's blocks still fall under releasepath, like any other
// block).
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every go statement carries //lint:allow goroleak naming what bounds the goroutine's lifetime",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"go statement with no stated lifetime: name what ends this goroutine (a join, a scheduler, a bounded loop) in a //lint:allow goroleak directive, or do the work without one")
			}
			return true
		})
	}
}
