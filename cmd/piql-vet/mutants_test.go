package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"piql/internal/lint"
)

var mutants = flag.Bool("mutants", false, "apply each row of testdata/mutants.ledger to a `git archive HEAD` copy and run its gate (make mutants)")

// mutant is one row of testdata/mutants.ledger: a seeded bug and the
// gate that must catch it.
type mutant struct {
	name     string
	file     string
	old, new string
	gate     string
}

// readLedger parses testdata/mutants.ledger; its header gives the
// format.
func readLedger(t *testing.T) []mutant {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "mutants.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []mutant
	name := ""
	for i, line := range strings.Split(string(data), "\n") {
		if c, ok := strings.CutPrefix(line, "# "); ok {
			name, _, _ = strings.Cut(c, ":")
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		m, err := parseRow(name, line)
		if err != nil {
			t.Fatalf("mutants.ledger:%d: %v", i+1, err)
		}
		rows = append(rows, m)
	}
	return rows
}

// parseRow parses `<file> <old> <new> <gate>`, old and new being Go
// string literals.
func parseRow(name, line string) (mutant, error) {
	m := mutant{name: name}
	file, rest, _ := strings.Cut(line, " ")
	m.file = file
	for _, field := range []*string{&m.old, &m.new} {
		rest = strings.TrimLeft(rest, " ")
		lit, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return m, fmt.Errorf("want a Go string literal at %q", rest)
		}
		*field, _ = strconv.Unquote(lit)
		rest = rest[len(lit):]
	}
	m.gate = strings.TrimSpace(rest)
	if m.gate == "" {
		return m, fmt.Errorf("row has no gate")
	}
	return m, nil
}

// TestMutantLedger checks that every ledger row still applies: its old
// text occurs exactly once in its file, a piql-vet gate names a
// registered analyzer, and a test or race gate names a test its package
// declares (a row left behind by a deleted analyzer or a renamed test
// would otherwise always survive). With -mutants it also applies each row
// alone to a fresh `git archive HEAD` copy of the tree and runs the
// row's gate there; a gate that passes on its mutant fails the row.
func TestMutantLedger(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range readLedger(t) {
		t.Run(m.name, func(t *testing.T) {
			if name, ok := strings.CutPrefix(m.gate, "piql-vet:"); ok && lint.ByName(name) == nil {
				t.Fatalf("gate %s: no analyzer %q is registered in lint.Analyzers", m.gate, name)
			}
			if err := gateTestExists(root, m.gate); err != nil {
				t.Fatal(err)
			}
			if err := gateRuleExists(root, m.gate); err != nil {
				t.Fatal(err)
			}
			dir := root
			if *mutants {
				dir = archiveHead(t, root)
			}
			path := filepath.Join(dir, filepath.FromSlash(m.file))
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s: old text occurs %d times, want exactly once: %q", m.file, n, m.old)
			}
			if !*mutants {
				return
			}
			mutated := strings.Replace(string(src), m.old, m.new, 1)
			if err := os.WriteFile(path, []byte(mutated), 0o666); err != nil {
				t.Fatal(err)
			}
			if caught, out := runGate(t, dir, m.gate); !caught {
				t.Errorf("survived: gate %s passes on the mutant\n%s", m.gate, out)
			}
		})
	}
}

// gateTestExists reports an error when gate is a test or race gate whose
// package, under root, declares no such test: `go test -run '^Name$'`
// runs nothing and passes when Name is gone, so the row would survive
// every mutant. A test is a func TestName(t *testing.T) or
// FuzzName(f *testing.F) in one of the package's _test.go files.
func gateTestExists(root, gate string) error {
	kind, arg, _ := strings.Cut(gate, ":")
	if kind != "test" && kind != "race" {
		return nil
	}
	pkg, name, _ := strings.Cut(arg, ":")
	want := "T"
	if strings.HasPrefix(name, "Fuzz") {
		want = "F"
	}
	dir := filepath.Join(root, filepath.FromSlash(pkg))
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Name.Name != name || len(fd.Type.Params.List) != 1 {
				continue
			}
			if star, ok := fd.Type.Params.List[0].Type.(*ast.StarExpr); ok {
				if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == want {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "testing" {
						return nil
					}
				}
			}
		}
	}
	return fmt.Errorf("gate %s: ./%s declares no func %s(*testing.%s)", gate, pkg, name, want)
}

// gateRuleExists reports an error when gate is a lint gate, lint:<rule>,
// and no rule of the Makefile's lint target prints "layering: <rule>":
// a reworded rule would otherwise leave the row catching nothing.
func gateRuleExists(root, gate string) error {
	rule, ok := strings.CutPrefix(gate, "lint:")
	if !ok {
		return nil
	}
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		return err
	}
	if !bytes.Contains(mk, []byte(`echo "layering: `+rule)) {
		return fmt.Errorf("gate %s: no rule of the Makefile prints %q", gate, "layering: "+rule)
	}
	return nil
}

// archiveHead extracts `git archive HEAD` of the repository at root into
// a fresh temporary directory.
func archiveHead(t *testing.T, root string) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("sh", "-c", `git -C "$1" archive HEAD | tar -x -C "$2"`, "sh", root, dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("git archive: %v\n%s", err, out)
	}
	return dir
}

// gateTimeout bounds one test or race gate. The gated tests pass
// unmutated in under 4 s each (TestFiguresGolden, the slowest, in about
// 3.5 s on 2 CPUs); a mutant that wedges one runs until this fires.
const gateTimeout = "20s"

// runGate runs one gate over the module in dir and reports whether it
// caught the mutant, with the gate's output. A test gate catches it by
// failing, or by hanging: timing out with the gate test still running.
// A lint gate catches it when `make lint` fails with its rule's words.
func runGate(t *testing.T, dir, gate string) (bool, string) {
	t.Helper()
	kind, arg, _ := strings.Cut(gate, ":")
	switch kind {
	case "piql-vet":
		var out bytes.Buffer
		run([]string{"-C", dir, "./..."}, &out)
		return strings.Contains(out.String(), " ("+arg+")\n"), out.String()
	case "lint":
		cmd := exec.Command("make", "--no-print-directory", "lint")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return err != nil && bytes.Contains(out, []byte("layering: "+arg)), string(out)
	case "test", "race":
		pkg, name, _ := strings.Cut(arg, ":")
		args := []string{"test", "-count=1", "-timeout", gateTimeout}
		if kind == "race" {
			args = append(args, "-race")
		}
		cmd := exec.Command("go", append(args, "-run", "^"+name+"$", "./"+pkg)...)
		cmd.Dir = dir
		out, _ := cmd.CombinedOutput()
		return bytes.Contains(out, []byte("--- FAIL: "+name)) || hungIn(string(out), name), string(out)
	}
	t.Fatalf("unknown gate %q", gate)
	return false, ""
}

// hungIn reports whether out is a test binary's timeout panic whose
// `running tests:` list names the test name or one of its subtests.
func hungIn(out, name string) bool {
	if !strings.Contains(out, "panic: test timed out after") {
		return false
	}
	_, running, ok := strings.Cut(out, "running tests:\n")
	if !ok {
		return false
	}
	for _, line := range strings.Split(running, "\n") {
		test, _, _ := strings.Cut(strings.TrimSpace(line), " ")
		if test == "" {
			return false // the list ends at a blank line
		}
		if test == name || strings.HasPrefix(test, name+"/") {
			return true
		}
	}
	return false
}

// TestHungIn reads a timed-out test binary's report the way runGate
// does: the gate test, or a subtest of it, must be among the running.
func TestHungIn(t *testing.T) {
	const timedOut = "panic: test timed out after 1m0s\n\trunning tests:\n\t\tTestStorm (1m0s)\n\t\tTestStorm/seed-2 (1m0s)\n\ngoroutine 17 [running]:\nTestOther\n"
	for _, tc := range []struct {
		out, name string
		want      bool
	}{
		{timedOut, "TestStorm", true},
		{timedOut, "TestStor", false},
		{timedOut, "TestOther", false},
		{"--- FAIL: TestStorm (0.01s)\nFAIL\n", "TestStorm", false},
		{"ok  \tpiql/internal/harness\t1.2s\n", "TestStorm", false},
	} {
		if got := hungIn(tc.out, tc.name); got != tc.want {
			t.Errorf("hungIn(%q, %s) = %v, want %v", tc.out, tc.name, got, tc.want)
		}
	}
}

// TestGateTestExists: a test or race gate must name a test its package
// declares, a Test with a *testing.T or a Fuzz with a *testing.F; a
// helper of the same package, a misspelt name or a Test in another
// package is not one.
func TestGateTestExists(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		gate string
		ok   bool
	}{
		{"test:internal/engine:TestWarmExecuteAllocations", true},
		{"race:internal/kvstore:TestErrorChainsRoundTrip", true},
		{"test:internal/value:FuzzDecodeRow", true},
		{"piql-vet:releasepath", true},
		{"test:internal/engine:TestWarmExecuteAllocationz", false},
		{"race:internal/kvstore:TestWarmExecuteAllocations", false},
		{"test:internal/engine:warmAllocs", false},
		{"test:cmd/piql-vet:TestHungIn", true},
	} {
		if err := gateTestExists(root, tc.gate); (err == nil) != tc.ok {
			t.Errorf("gateTestExists(%s) = %v, want ok %v", tc.gate, err, tc.ok)
		}
	}
}
