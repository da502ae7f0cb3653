package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

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
