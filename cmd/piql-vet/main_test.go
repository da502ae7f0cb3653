package main

import (
	"bytes"
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

	var stderr bytes.Buffer
	if code := run([]string{"-escapebudget", "-C", tmp}, &stderr); code != 0 {
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
	stderr.Reset()
	code := run([]string{"-escapebudget", "-C", tmp}, &stderr)
	if code != 2 {
		t.Fatalf("seeded escape regression exited %d (want 2)\nstderr: %s", code, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "piql/codec.DecodeRow") || !strings.Contains(out, "over its budget of 0") {
		t.Fatalf("gate does not cite function and budget:\n%s", out)
	}

	// -update ratchets the budget to the measured count, after which
	// the same tree passes.
	stderr.Reset()
	if code := run([]string{"-escapebudget", "-update", "-C", tmp}, &stderr); code != 0 {
		t.Fatalf("-update exited %d:\n%s", code, stderr.String())
	}
	budget, err := os.ReadFile(filepath.Join(tmp, "escape.budget"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(budget), "piql/codec.DecodeRow 1") {
		t.Fatalf("-update did not record the measured count:\n%s", budget)
	}
	stderr.Reset()
	if code := run([]string{"-escapebudget", "-C", tmp}, &stderr); code != 0 {
		t.Fatalf("updated budget still fails (%d):\n%s", code, stderr.String())
	}

	// A stale entry for a function that no longer exists is an error,
	// not a silent pass.
	writeTree(t, tmp, map[string]string{"escape.budget": "piql/codec.Gone 0\n"})
	stderr.Reset()
	if code := run([]string{"-escapebudget", "-C", tmp}, &stderr); code != 1 {
		t.Fatalf("stale budget entry exited %d (want 1):\n%s", code, stderr.String())
	}
}

// TestStandaloneCleanTree runs the driver over the whole module: the
// tree must be clean (every finding fixed or justified).
func TestStandaloneCleanTree(t *testing.T) {
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	code := run([]string{"-C", repoRoot, "./..."}, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d:\n%s", code, stderr.String())
	}
}
