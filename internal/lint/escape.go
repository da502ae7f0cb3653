package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// Escape-budget support: turning the compiler's escape analysis into
// lint input. `go build -gcflags=-m` prints one line per escape
// decision; the driver (cmd/piql-vet -escapebudget) runs the build,
// parses the lines with ParseEscapeDiagnostics, attributes each heap
// escape to its enclosing function with AttributeEscapes, and hands
// the per-package result to the escapebudget analyzer through
// Unit.Escapes. The checked-in budget file (escape.budget at the
// module root) is both the allowlist — only functions listed there
// are gated — and the ratchet: each line is
//
//	<import/path>.<FuncKey> <allowed-heap-escapes>
//
// e.g. `piql/internal/codec.DecodeKey 0`. A function exceeding its
// number fails lint at the first over-budget escape site;
// `piql-vet -escapebudget -update` rewrites the counts after a
// deliberate change.

// EscapeRaw is one compiler escape diagnostic: a heap escape at
// File:Line:Col with the compiler's own message ("x escapes to heap",
// "moved to heap: buf").
type EscapeRaw struct {
	File      string
	Line, Col int
	What      string
}

// EscapeSite is one attributed heap escape inside a budgeted function.
type EscapeSite struct {
	Pos  token.Position
	What string
}

// EscapeInfo is the escapebudget analyzer's input for one package:
// the budget entries whose functions live here, and the attributed
// escape sites per qualified function name.
type EscapeInfo struct {
	Budget map[string]int
	Sites  map[string][]EscapeSite
}

// ParseEscapeDiagnostics extracts the heap-escape lines from a
// `go build -gcflags=-m` stderr dump. Only decisions that cost an
// allocation are kept: "escapes to heap" and "moved to heap".
// "does not escape", "leaking param", and inlining chatter are not
// allocations and are dropped, as is a string literal that "escapes" into
// an interface (a panic message inlined from strings.Builder): the
// compiler points the interface at static data, so nothing is allocated.
func ParseEscapeDiagnostics(output []byte) []EscapeRaw {
	var out []EscapeRaw
	for _, line := range bytes.Split(output, []byte("\n")) {
		s := string(bytes.TrimSpace(line))
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		if !strings.Contains(s, "escapes to heap") && !strings.Contains(s, "moved to heap") {
			continue
		}
		if strings.Contains(s, "does not escape") {
			continue
		}
		// file.go:line:col: message
		parts := strings.SplitN(s, ":", 4)
		if len(parts) != 4 {
			continue
		}
		ln, err1 := strconv.Atoi(parts[1])
		col, err2 := strconv.Atoi(parts[2])
		what := strings.TrimSpace(parts[3])
		if err1 != nil || err2 != nil || strings.HasPrefix(what, `"`) {
			continue
		}
		out = append(out, EscapeRaw{
			File: parts[0],
			Line: ln,
			Col:  col,
			What: what,
		})
	}
	return out
}

// AttributeEscapes maps raw escape sites onto the functions of one
// parsed package: every raw site whose file and line fall inside a
// declared function body is recorded under that function's qualified
// name ("<importPath>.<FuncKey>"). Sites in files not part of files
// are ignored (they belong to other packages).
func AttributeEscapes(fset *token.FileSet, files []*ast.File, importPath string, raws []EscapeRaw) map[string][]EscapeSite {
	type span struct {
		file       string
		start, end int
		name       string
	}
	var spans []span
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			start := fset.Position(fd.Pos())
			end := fset.Position(fd.End())
			spans = append(spans, span{
				file:  start.Filename,
				start: start.Line,
				end:   end.Line,
				name:  importPath + "." + declKey(fd),
			})
		}
	}
	out := map[string][]EscapeSite{}
	for _, r := range raws {
		for _, sp := range spans {
			if r.File == sp.file && r.Line >= sp.start && r.Line <= sp.end {
				out[sp.name] = append(out[sp.name], EscapeSite{
					Pos:  token.Position{Filename: r.File, Line: r.Line, Column: r.Col},
					What: r.What,
				})
				break
			}
		}
	}
	for _, sites := range out {
		sort.Slice(sites, func(i, j int) bool {
			if sites[i].Pos.Line != sites[j].Pos.Line {
				return sites[i].Pos.Line < sites[j].Pos.Line
			}
			return sites[i].Pos.Column < sites[j].Pos.Column
		})
	}
	return out
}

// declKey renders a FuncDecl the way funcKey renders its object —
// "Func", "(Type).Method", "(*Type).Method" — from syntax alone (the
// escape driver does not typecheck).
func declKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	ptr := false
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
		ptr = true
	}
	// Generic receivers ("T[K]") reduce to the base name.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	name := ""
	if id, ok := t.(*ast.Ident); ok {
		name = id.Name
	}
	if name == "" {
		return fd.Name.Name
	}
	if ptr {
		return "(*" + name + ")." + fd.Name.Name
	}
	return "(" + name + ")." + fd.Name.Name
}

// DeclaredFuncKeys returns the FuncKeys ("Func", "(Type).M",
// "(*Type).M") declared with bodies in files; the escapebudget driver
// uses it to reject stale budget entries for functions that no longer
// exist.
func DeclaredFuncKeys(files []*ast.File) map[string]bool {
	out := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out[declKey(fd)] = true
			}
		}
	}
	return out
}

// ParseEscapeBudget reads the checked-in budget file: one
// "<qualified-func> <count>" per line, '#' comments and blank lines
// ignored. Returns the counts and the original entry order (update
// mode preserves it).
func ParseEscapeBudget(data []byte) (map[string]int, []string, error) {
	counts := map[string]int{}
	var order []string
	for i, line := range bytes.Split(data, []byte("\n")) {
		s := string(bytes.TrimSpace(line))
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		fields := strings.Fields(s)
		if len(fields) != 2 {
			return nil, nil, fmt.Errorf("escape budget line %d: want \"<func> <count>\", got %q", i+1, s)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return nil, nil, fmt.Errorf("escape budget line %d: bad count %q", i+1, fields[1])
		}
		if _, dup := counts[fields[0]]; dup {
			return nil, nil, fmt.Errorf("escape budget line %d: duplicate entry %s", i+1, fields[0])
		}
		counts[fields[0]] = n
		order = append(order, fields[0])
	}
	return counts, order, nil
}

// FormatEscapeBudget renders a budget file with the given entry order.
func FormatEscapeBudget(counts map[string]int, order []string) []byte {
	var b bytes.Buffer
	b.WriteString("# Heap-escape budget for the hot-path functions piql-vet gates\n")
	b.WriteString("# (escapebudget analyzer). Each line: <import/path>.<Func> <count>,\n")
	b.WriteString("# the number of `escapes to heap`/`moved to heap` decisions\n")
	b.WriteString("# `go build -gcflags=-m` reports inside that function. Regenerate\n")
	b.WriteString("# after a deliberate change with: piql-vet -escapebudget -update\n")
	for _, fn := range order {
		fmt.Fprintf(&b, "%s %d\n", fn, counts[fn])
	}
	return b.Bytes()
}

// EscapeBudgetImportPath splits a qualified budget entry into its
// package import path and function key: the key starts after the
// first '.' following the last '/'.
func EscapeBudgetImportPath(entry string) (importPath, key string, ok bool) {
	slash := strings.LastIndexByte(entry, '/')
	dot := strings.IndexByte(entry[slash+1:], '.')
	if dot < 0 {
		return "", "", false
	}
	dot += slash + 1
	return entry[:dot], entry[dot+1:], true
}
