package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree writes a file tree under root from path→contents.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for path, content := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// oneDiagnostic runs the driver over the scratch module in root, which
// must end in exactly one diagnostic, at file:line (file relative to
// root), and returns it.
func oneDiagnostic(t *testing.T, root, file string, line int) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", root, "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exited %d (want 2)\nstderr: %s", code, stderr.String())
	}
	out := strings.TrimSpace(stderr.String())
	pos := fmt.Sprintf("%s:%d:", filepath.Join(root, filepath.FromSlash(file)), line)
	if strings.Contains(out, "\n") || !strings.HasPrefix(out, pos) {
		t.Fatalf("want exactly one diagnostic, at %s\n%s", pos, out)
	}
	return out
}

// TestReleasePathCrossPackageFacts drives cross-package facts end to
// end through the driver: an acquire-helper in one package (justified
// with //lint:allow, which still exports the hold as a NetAcquires
// fact) and a caller in another package that leaks the hold on an early
// return. The caller's source never names the mutex, so a diagnostic
// citing lockutil.Guard.Mu can only have come through the helper
// package's facts; the balanced caller next to it shows the release
// half (NetReleases) arrives the same way.
func TestReleasePathCrossPackageFacts(t *testing.T) {
	tmp := t.TempDir()
	// The scratch module is also named piql so its packages count as
	// module-local to the analyzers.
	writeTree(t, tmp, map[string]string{
		"go.mod": "module piql\n\ngo 1.24\n",
		"lockutil/lockutil.go": `package lockutil

import "sync"

type Guard struct{ Mu sync.Mutex }

// BeginHold locks the guard and returns holding it: an intentional
// acquire-helper whose callers must call EndHold.
//
//lint:allow releasepath — acquire-helper contract: every BeginHold caller must EndHold
func BeginHold(g *Guard) {
	g.Mu.Lock()
}

// EndHold releases a hold taken by BeginHold.
func EndHold(g *Guard) {
	g.Mu.Unlock()
}
`,
		"user/user.go": `package user

import "piql/lockutil"

// LeakyHold forgets EndHold on the error path.
func LeakyHold(g *lockutil.Guard, bad bool) {
	lockutil.BeginHold(g)
	if bad {
		return
	}
	lockutil.EndHold(g)
}

// BalancedHold releases on its only path.
func BalancedHold(g *lockutil.Guard) {
	lockutil.BeginHold(g)
	lockutil.EndHold(g)
}
`,
	})
	out := oneDiagnostic(t, tmp, "user/user.go", 9) // LeakyHold's early return
	if !strings.Contains(out, "mutex lockutil.Guard.Mu is still held at this return") || !strings.Contains(out, "(releasepath)") {
		t.Fatalf("diagnostic does not witness the imported hold:\n%s", out)
	}
}

// TestEscapeBudgetGate seeds a one-line heap-escape regression on a
// row-decode path in a scratch module and proves the gate trips: lint
// exits 2 citing the function and its budget. The clean module passes,
// and -update rewrites the budget to the measured counts.
func TestEscapeBudgetGate(t *testing.T) {
	tmp := t.TempDir()
	clean := `package codec

// DecodeRow parses a length-prefixed row without allocating.
func DecodeRow(b []byte) (int, []byte) {
	n := int(b[0])
	return n, b[1 : 1+n]
}
`
	writeTree(t, tmp, map[string]string{
		"go.mod":         "module piql\n\ngo 1.24\n",
		"codec/codec.go": clean,
		"escape.budget":  "piql/codec.DecodeRow 0\n",
	})

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-escapebudget", "-C", tmp}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean module exited %d:\n%s", code, stderr.String())
	}

	// The regression: one line that hands a pointer to the heap.
	leaky := `package codec

var sink *int

// DecodeRow parses a length-prefixed row; the regression leaks a
// counter to the heap.
func DecodeRow(b []byte) (int, []byte) {
	n := int(b[0])
	leak := new(int)
	sink = leak
	return n, b[1 : 1+n]
}
`
	writeTree(t, tmp, map[string]string{"codec/codec.go": leaky})
	stdout.Reset()
	stderr.Reset()
	code := run([]string{"-escapebudget", "-C", tmp}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("seeded escape regression exited %d (want 2)\nstderr: %s", code, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "piql/codec.DecodeRow") || !strings.Contains(out, "over its budget of 0") {
		t.Fatalf("gate does not cite function and budget:\n%s", out)
	}

	// -update ratchets the budget to the measured count, after which
	// the same tree passes.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-escapebudget", "-update", "-C", tmp}, &stdout, &stderr); code != 0 {
		t.Fatalf("-update exited %d:\n%s", code, stderr.String())
	}
	budget, err := os.ReadFile(filepath.Join(tmp, "escape.budget"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(budget), "piql/codec.DecodeRow 1") {
		t.Fatalf("-update did not record the measured count:\n%s", budget)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-escapebudget", "-C", tmp}, &stdout, &stderr); code != 0 {
		t.Fatalf("updated budget still fails (%d):\n%s", code, stderr.String())
	}

	// A stale entry for a function that no longer exists is an error,
	// not a silent pass.
	writeTree(t, tmp, map[string]string{"escape.budget": "piql/codec.Gone 0\n"})
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-escapebudget", "-C", tmp}, &stdout, &stderr); code != 1 {
		t.Fatalf("stale budget entry exited %d (want 1):\n%s", code, stderr.String())
	}
}

// TestStandaloneCleanTree runs the driver over the whole module: the
// tree must be clean (every finding fixed or justified), and the lock
// hierarchy must contain the documented roots.
func TestStandaloneCleanTree(t *testing.T) {
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-lockgraph", "-C", repoRoot, "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	graph := stdout.String()
	for _, want := range []string{
		"kvstore.Cluster.rebalanceMu",
		"kvstore.Cluster.faultMu",
		"kvstore.move.mu",
		"kvstore.node.mu",
		"engine.Engine.writeGate",
	} {
		if !strings.Contains(graph, want) {
			t.Errorf("lock hierarchy missing %s:\n%s", want, graph)
		}
	}
}
