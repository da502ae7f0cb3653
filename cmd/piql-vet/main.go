// Command piql-vet runs the project's invariant analyzers
// (internal/lint) over the module that contains the working directory:
//
//	piql-vet [-C dir] ./...
//
// There is one analysis path: the module is parsed and typechecked from
// source (lint.Loader — no export data, no go vet handshake) and each
// package is analyzed on its own; no summary is carried from a callee
// into its caller or from one package to the next.
//
// Violations print as file:line:col diagnostics on stderr. Exit status:
// 0 clean, 1 operational error, 2 findings. A site that is allowed to
// break a rule carries a //lint:allow directive (see internal/lint).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"piql/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the whole tool; main only binds it to the process.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("piql-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chdir := fs.String("C", ".", "analyze the module containing `dir`, one package at a time")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	for _, p := range fs.Args() {
		if p != "./..." {
			fmt.Fprintf(stderr, "piql-vet: the whole module is analyzed; unsupported pattern %q (use ./...)\n", p)
			return 1
		}
	}
	loader, err := lint.NewLoader(*chdir)
	if err != nil {
		fmt.Fprintf(stderr, "piql-vet: %v\n", err)
		return 1
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintf(stderr, "piql-vet: %v\n", err)
		return 1
	}
	findings := 0
	for _, lp := range pkgs {
		for _, d := range lint.RunUnit(lp.Unit, lint.Analyzers) {
			fmt.Fprintln(stderr, d)
			findings++
		}
	}
	if findings > 0 {
		return 2
	}
	return 0
}
