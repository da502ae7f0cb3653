// Command piql-vet runs the project's invariant analyzers
// (internal/lint) over the module that contains the working directory:
//
//	piql-vet [-C dir] ./...              # analyze every package
//	piql-vet [-C dir] -escapebudget      # hot-path heap-escape gate
//	piql-vet [-C dir] -escapebudget -update
//
// There is one analysis path: the module is parsed and typechecked from
// source (lint.Loader — no export data, no go vet handshake) and each
// package is analyzed on its own; no summary crosses a package boundary
// (internal/lint's interproc.go says why none has to). -escapebudget is
// the one analyzer that needs a build instead: it runs
// `go build -gcflags=-m` and compares the compiler's escape decisions
// with escape.budget.
//
// Violations print as file:line:col diagnostics on stderr. Exit status:
// 0 clean, 1 operational error, 2 findings. A site that is allowed to
// break a rule carries a //lint:allow directive (see internal/lint).
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"

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
	escBudget := fs.Bool("escapebudget", false, "run only the heap-escape gate (go build -gcflags=-m against escape.budget)")
	update := fs.Bool("update", false, "with -escapebudget: rewrite escape.budget to the measured counts")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	for _, p := range fs.Args() {
		if p != "./..." {
			fmt.Fprintf(stderr, "piql-vet: the whole module is analyzed; unsupported pattern %q (use ./...)\n", p)
			return 1
		}
	}
	if *update && !*escBudget {
		fmt.Fprintln(stderr, "piql-vet: -update applies to -escapebudget only")
		return 1
	}
	loader, err := lint.NewLoader(*chdir)
	if err != nil {
		fmt.Fprintf(stderr, "piql-vet: %v\n", err)
		return 1
	}
	if *escBudget {
		return runEscapeBudget(loader, *update, stderr)
	}
	return runAnalyzers(loader, stderr)
}

// runAnalyzers runs every analyzer over each package of the module.
func runAnalyzers(loader *lint.Loader, stderr io.Writer) int {
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintf(stderr, "piql-vet: %v\n", err)
		return 1
	}
	findings := 0
	for _, lp := range pkgs {
		findings += report(lint.RunUnit(lp.Unit, lint.Analyzers), stderr)
	}
	if findings > 0 {
		return 2
	}
	return 0
}

// report prints diagnostics and returns how many there were.
func report(diags []lint.Diagnostic, stderr io.Writer) int {
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	return len(diags)
}

// runEscapeBudget is the escapebudget analyzer's driver: it needs the
// compiler's escape decisions, so it builds the whole module with
// -gcflags=-m, attributes the heap escapes to the budgeted functions,
// and runs just that analyzer over the packages the budget file names.
// With update=true it rewrites the budget file to the measured counts
// instead of reporting.
func runEscapeBudget(loader *lint.Loader, update bool, stderr io.Writer) int {
	root := loader.ModuleRoot
	budgetPath := filepath.Join(root, "escape.budget")
	data, err := os.ReadFile(budgetPath)
	if err != nil {
		fmt.Fprintf(stderr, "piql-vet: escape budget: %v\n", err)
		return 1
	}
	counts, order, err := lint.ParseEscapeBudget(data)
	if err != nil {
		fmt.Fprintf(stderr, "piql-vet: %s: %v\n", budgetPath, err)
		return 1
	}
	if len(counts) == 0 {
		fmt.Fprintf(stderr, "piql-vet: %s lists no functions; nothing gated\n", budgetPath)
		return 0
	}

	// The compiler replays -m diagnostics from the build cache, so a
	// warm re-run is cheap.
	cmd := exec.Command("go", "build", "-gcflags=-m", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(stderr, "piql-vet: go build -gcflags=-m: %v\n%s", err, out)
		return 1
	}
	raws := lint.ParseEscapeDiagnostics(out)
	for i := range raws {
		if !filepath.IsAbs(raws[i].File) {
			raws[i].File = filepath.Join(root, raws[i].File)
		}
	}

	byPkg := map[string]map[string]int{}
	for fn, n := range counts {
		ip, _, ok := lint.EscapeBudgetImportPath(fn)
		if !ok {
			fmt.Fprintf(stderr, "piql-vet: %s: entry %q has no import path\n", budgetPath, fn)
			return 1
		}
		if byPkg[ip] == nil {
			byPkg[ip] = map[string]int{}
		}
		byPkg[ip][fn] = n
	}

	var diags []lint.Diagnostic
	measured := map[string]int{}
	for _, ip := range slices.Sorted(maps.Keys(byPkg)) {
		files, err := loader.ParsePackage(ip)
		if err != nil {
			fmt.Fprintf(stderr, "piql-vet: budgeted package %s: %v\n", ip, err)
			return 1
		}
		declared := lint.DeclaredFuncKeys(files)
		sites := lint.AttributeEscapes(loader.Fset(), files, ip, raws)
		for fn := range byPkg[ip] {
			_, key, _ := lint.EscapeBudgetImportPath(fn)
			if !declared[key] {
				fmt.Fprintf(stderr, "piql-vet: %s: %s is not declared in %s; remove or fix the stale entry\n",
					budgetPath, fn, ip)
				return 1
			}
			measured[fn] = len(sites[fn])
		}
		unit := &lint.Unit{
			Fset:       loader.Fset(),
			Files:      files,
			ImportPath: ip,
			Escapes:    &lint.EscapeInfo{Budget: byPkg[ip], Sites: sites},
		}
		diags = append(diags, lint.RunUnit(unit, []*lint.Analyzer{lint.EscapeBudget})...)
	}

	if update {
		for fn := range counts {
			counts[fn] = measured[fn]
		}
		if err := os.WriteFile(budgetPath, lint.FormatEscapeBudget(counts, order), 0o666); err != nil {
			fmt.Fprintf(stderr, "piql-vet: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "piql-vet: escape budget rewritten (%d entries)\n", len(order))
		return 0
	}
	// Under budget is not a failure, but say so: a budget that drifted
	// high lets regressions hide under it.
	for _, fn := range order {
		if measured[fn] < counts[fn] {
			fmt.Fprintf(stderr, "piql-vet: note: %s has %d heap escapes, under its budget of %d; tighten with piql-vet -escapebudget -update\n",
				fn, measured[fn], counts[fn])
		}
	}
	if report(diags, stderr) > 0 {
		return 2
	}
	return 0
}
