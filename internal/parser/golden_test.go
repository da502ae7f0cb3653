package parser

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current code")

// TestParseGolden pins what Parse makes of every FuzzParse seed and every
// TestSyntaxErrors input: for an accepted statement its type, its
// String() and the parameter indexes of each predicate (and of each
// INSERT value and UPDATE assignment), plus the parsed schema of DDL;
// for a refused one the error, offset included. A change is a reviewed
// diff of testdata/parse.golden:
//
//	go test ./internal/parser -run TestParseGolden -update
func TestParseGolden(t *testing.T) {
	var sb strings.Builder
	seeds := parseSeeds(t)
	for _, name := range slices.Sorted(maps.Keys(seeds)) {
		fmt.Fprintf(&sb, "== seed %s\n", name)
		describeParse(&sb, seeds[name])
	}
	for _, src := range syntaxErrorCases {
		fmt.Fprintf(&sb, "== TestSyntaxErrors %q\n", src)
		describeParse(&sb, src)
	}
	checkGolden(t, "parse.golden", sb.String())
}

func describeParse(sb *strings.Builder, src string) {
	stmt, err := Parse(src)
	if err != nil {
		fmt.Fprintf(sb, "\terror: %v\n", err)
		return
	}
	fmt.Fprintf(sb, "\t%T %s\n", stmt, stmt)
	describePreds := func(preds []Predicate) {
		for _, p := range preds {
			fmt.Fprintf(sb, "\tpredicate %s: params %v\n", p, paramIndexes(append([]Expr{p.Right}, p.InList...)))
		}
	}
	switch s := stmt.(type) {
	case *Select:
		describePreds(s.Where)
	case *Insert:
		fmt.Fprintf(sb, "\tvalues: params %v\n", paramIndexes(s.Values))
	case *Update:
		for _, a := range s.Set {
			fmt.Fprintf(sb, "\tset %s: params %v\n", a.Column, paramIndexes([]Expr{a.Value}))
		}
		describePreds(s.Where)
	case *Delete:
		describePreds(s.Where)
	case *CreateTable:
		tab := s.Table
		fmt.Fprintf(sb, "\tcolumns %+v primary key %v foreign keys %+v cardinalities %+v\n",
			tab.Columns, tab.PrimaryKey, tab.ForeignKeys, tab.Cardinalities)
	case *CreateIndex:
		fmt.Fprintf(sb, "\ton %s fields %+v\n", s.Index.Table, s.Index.Fields)
	}
}

// paramIndexes lists the index of each parameter among es.
func paramIndexes(es []Expr) []int {
	var idx []int
	for _, e := range es {
		if p, ok := e.(Param); ok {
			idx = append(idx, p.Index)
		}
	}
	return idx
}

// TestParseAllocations holds Parse of every FuzzParse seed and every
// prepare_cold shape at or below the allocations recorded in
// testdata/parse.allocs, so neither a list reader's item func nor
// anything else the parser builds per token starts escaping. -update
// rewrites the file with the current counts.
func TestParseAllocations(t *testing.T) {
	if info, _ := debug.ReadBuildInfo(); info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts differ under -race")
	}
	srcs := parseSeeds(t)
	for i, src := range coldShapes {
		srcs["prepare_cold-shape-"+strconv.Itoa(i)] = src
	}
	var sb strings.Builder
	got := map[string]float64{}
	for _, name := range slices.Sorted(maps.Keys(srcs)) {
		got[name] = testing.AllocsPerRun(100, func() { _, _ = Parse(srcs[name]) })
		fmt.Fprintf(&sb, "%s %v\n", name, got[name])
	}
	if *update {
		checkGolden(t, "parse.allocs", sb.String())
		return
	}
	data, err := os.ReadFile(filepath.Join("testdata", "parse.allocs"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, count, _ := strings.Cut(line, " ")
		n, err := strconv.ParseFloat(count, 64)
		if err != nil {
			t.Fatalf("parse.allocs: %q: %v", line, err)
		}
		want[name] = n
	}
	for name, n := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no ceiling in testdata/parse.allocs (add it with -update)", name)
		} else if n > w {
			t.Errorf("%s: Parse made %v allocations, want at most %v", name, n, w)
		}
	}
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) == got {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("%s differs at line %d (regenerate with -update and review the diff):\n  want: %s\n  got:  %s", path, i+1, w, g)
		}
	}
}
