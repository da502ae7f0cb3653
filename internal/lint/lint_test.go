package lint_test

import (
	"path/filepath"
	"testing"

	"piql/internal/lint"
	"piql/internal/lint/linttest"
)

// byName fetches an analyzer through the registry, so deleting a
// registration from lint.Analyzers fails that analyzer's fixture suite
// here rather than silently shrinking the gate.
func byName(t *testing.T, name string) *lint.Analyzer {
	t.Helper()
	a := lint.ByName(name)
	if a == nil {
		t.Fatalf("analyzer %q is not registered in lint.Analyzers", name)
	}
	return a
}

func TestRoutingClaim(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "routingclaim"), byName(t, "routingclaim"))
}

func TestSimSleep(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "simsleep"), byName(t, "simclock"))
}

func TestSimSleepIgnoresNonSimPackages(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "simsleepnosim"), byName(t, "simclock"))
}

func TestSimTimer(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "simtimer"), byName(t, "simclock"))
}

func TestSimTimerIgnoresNonSimPackages(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "simtimernosim"), byName(t, "simclock"))
}

func TestLeaseSwap(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "leaseswap"), byName(t, "leaseswap"))
}

func TestGoroLeak(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "goroleak"), byName(t, "goroleak"))
}

func TestReleasePath(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "releasepath"), byName(t, "releasepath"))
}

// TestStaleAllow drives the framework-level stale-directive report: a
// //lint:allow for an analyzer that ran but suppressed nothing is
// itself diagnosed, at the directive's position.
func TestStaleAllow(t *testing.T) {
	linttest.RunAnalyzers(t, filepath.Join("testdata", "staleallow"),
		[]*lint.Analyzer{byName(t, "routingclaim")})
}
