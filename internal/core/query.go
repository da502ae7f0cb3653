// Package core implements the paper's primary contribution: the PIQL
// scale-independent query compiler. It binds a parsed SELECT against the
// catalog, runs the two optimization phases of Section 5 — Phase I
// inserts and pushes down stop and data-stop operators (Algorithm 1),
// Phase II matches plan sections onto the three bounded remote operators
// (Algorithm 2) — selects the indexes the plan needs (Section 5.3),
// and, when a query cannot be bounded, produces Performance Insight
// Assistant feedback (Section 6.4). Compile and CompileCostBased are
// functions of (catalog, statement): they read the catalog through the
// Catalog view, which has no writing method, and name the indexes a
// plan needs in Plan.RequiredIndexes. Registering and building those is
// the engine's work, so a refused statement leaves nothing behind.
//
// The static bound on key/value operations is derived here and only
// here: one walk over the operator tree (bound.go) yields each remote
// operator's request sets and the plan's totals, and every other
// statement of the bound — EXPLAIN, internal/analyze's wording and
// admission, the SLO model's input — reads that walk.
package core

import (
	"fmt"
	"strings"

	"piql/internal/parser"
	"piql/internal/schema"
	"piql/internal/value"
)

// Unbounded marks a tuple or operation count with no static bound.
const Unbounded = -1

// boundAdd adds two possibly-unbounded counts.
func boundAdd(a, b int) int {
	if a == Unbounded || b == Unbounded {
		return Unbounded
	}
	return a + b
}

// boundMul multiplies two possibly-unbounded counts.
func boundMul(a, b int) int {
	if a == Unbounded || b == Unbounded {
		return Unbounded
	}
	return a * b
}

// boundMin returns the tighter of two possibly-unbounded counts.
func boundMin(a, b int) int {
	if a == Unbounded {
		return b
	}
	if b == Unbounded {
		return a
	}
	if a < b {
		return a
	}
	return b
}

// --- expressions shared by the compiler and the execution engine ---

// qualName is the display name of a column, relation.column, kept as
// what it joins — the relation as the statement wrote it, whose Name is
// its alias or table, and the column's name as the catalog holds it — so
// that binding copies what already exists and only a reader of the text
// joins them. The relation is held by pointer, into the bound query's
// relations: a cached plan keeps each predicate twice (a relation's list
// and its Phase I chain), and two strings would make a LocalPred 160
// bytes where this keeps it at 144. A name with no relation reads as the
// column alone.
type qualName struct {
	rel *parser.TableRef
	col string
}

func (n qualName) String() string {
	if n.rel == nil {
		return n.col
	}
	return n.rel.Name() + "." + n.col
}

// KeyExpr is a value source for a key component or comparison: a
// literal, a query parameter, or a column of the combined outer row.
// Its text is rendered when asked for, not when it is bound.
type KeyExpr struct {
	kind     keyExprKind
	constant value.Value
	param    int      // 1-based
	childCol int      // combined-row index
	name     qualName // a parameter's name (col only), or the child column's
}

type keyExprKind int

const (
	keyConst keyExprKind = iota
	keyParam
	keyChildCol
)

func constExpr(v value.Value) KeyExpr {
	return KeyExpr{kind: keyConst, constant: v}
}

func paramExpr(p parser.Param) KeyExpr {
	return KeyExpr{kind: keyParam, param: p.Index, name: qualName{col: p.Name}}
}

func childColExpr(idx int, name qualName) KeyExpr {
	return KeyExpr{kind: keyChildCol, childCol: idx, name: name}
}

func (e KeyExpr) String() string {
	switch e.kind {
	case keyConst:
		return e.constant.String()
	case keyParam:
		return parser.Param{Index: e.param, Name: e.name.col}.String()
	default:
		return e.name.String()
	}
}

// Eval resolves the expression against query parameters and (for child
// column references) the combined outer row.
func (e KeyExpr) Eval(params []value.Value, outer value.Row) (value.Value, error) {
	switch e.kind {
	case keyConst:
		return e.constant, nil
	case keyParam:
		if e.param < 1 || e.param > len(params) {
			return value.Value{}, fmt.Errorf("core: parameter %d not supplied (%d given)", e.param, len(params))
		}
		return params[e.param-1], nil
	case keyChildCol:
		if e.childCol < 0 || e.childCol >= len(outer) {
			return value.Value{}, fmt.Errorf("core: internal: child column %d out of range", e.childCol)
		}
		return outer[e.childCol], nil
	default:
		return value.Value{}, fmt.Errorf("core: internal: bad key expression")
	}
}

// LocalPred is a predicate evaluated in the application tier against the
// combined row: Col <Op> RHS, or Col IN InList.
type LocalPred struct {
	// Col is the column read: the binder stores the relation's own
	// ordinal, and shiftPreds rebases an operator's Residual onto the
	// combined row, where the relation's columns start at its offset.
	Col    int
	Op     parser.CompareOp
	RHS    KeyExpr
	InList []KeyExpr // IN-list; when set, Op is OpEq and RHS is unused
	name   qualName
}

func (p LocalPred) String() string {
	if p.InList != nil {
		parts := make([]string, len(p.InList))
		for i, e := range p.InList {
			parts[i] = e.String()
		}
		return fmt.Sprintf("%s IN (%s)", p.name, strings.Join(parts, ", "))
	}
	return fmt.Sprintf("%s %s %s", p.name, p.Op, p.RHS)
}

// Eval evaluates the predicate against a combined row.
func (p LocalPred) Eval(row value.Row, params []value.Value) (bool, error) {
	lhs := row[p.Col]
	if p.InList != nil {
		for _, e := range p.InList {
			rhs, err := e.Eval(params, row)
			if err != nil {
				return false, err
			}
			if value.Equal(lhs, rhs) {
				return true, nil
			}
		}
		return false, nil
	}
	if p.Op == parser.OpContains {
		rhs, err := p.RHS.Eval(params, row)
		if err != nil {
			return false, err
		}
		return containsToken(lhs.S, rhs.S), nil
	}
	rhs, err := p.RHS.Eval(params, row)
	if err != nil {
		return false, err
	}
	c := value.Compare(lhs, rhs)
	switch p.Op {
	case parser.OpEq:
		return c == 0, nil
	case parser.OpNe:
		return c != 0, nil
	case parser.OpLt:
		return c < 0, nil
	case parser.OpLe:
		return c <= 0, nil
	case parser.OpGt:
		return c > 0, nil
	case parser.OpGe:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("core: cannot evaluate %s locally", p.Op)
	}
}

// containsToken reports whether text contains word as a full token under
// the same tokenizer the full-text index uses.
func containsToken(text, word string) bool {
	want := strings.ToLower(word)
	for _, tok := range Tokenize(text) {
		if tok == want {
			return true
		}
	}
	return false
}

// Tokenize splits text into lower-cased alphanumeric tokens. It is the
// single tokenizer shared by the compiler, the inverted full-text index,
// and local CONTAINS evaluation.
func Tokenize(text string) []string {
	var toks []string
	start := -1
	flush := func(end int) {
		if start >= 0 {
			toks = append(toks, strings.ToLower(text[start:end]))
			start = -1
		}
	}
	for i, r := range text {
		isWord := r == '_' || ('0' <= r && r <= '9') || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z')
		if isWord && start < 0 {
			start = i
		} else if !isWord {
			flush(i)
		}
	}
	flush(len(text))
	return toks
}

// SortKey is a resolved ORDER BY component over the combined row.
type SortKey struct {
	Col  int
	Desc bool
	name qualName
}

func (k SortKey) String() string {
	if k.Desc {
		return k.name.String() + " DESC"
	}
	return k.name.String() + " ASC"
}

// AggSpec is one aggregate output column.
type AggSpec struct {
	Kind parser.AggKind
	Col  int // combined-row index; -1 for COUNT(*)
	Name string
}

// --- bound query: the binder's output, consumed by Phase I ---

// rel is one relation in the query with its single-table predicates.
// Its predicate lists are windows of one slab per statement (bindWhere,
// insertDataStop), each capped at its own length, so that appending to
// one can never write into the next.
type rel struct {
	ref    parser.TableRef
	table  *schema.Table
	offset int // column offset of this relation in the combined row

	eqPreds    []LocalPred // equality against literal/param (incl. IN, CONTAINS)
	otherPreds []LocalPred // inequalities and anything else single-table

	// Phase I results: the data-stop normal form for this relation's
	// access chain (abovePreds → DataStop(card) → belowPreds → Relation).
	dataStopCard int         // 0 = none, else max matching tuples per access
	belowPreds   []LocalPred // predicates that caused the data-stop
	abovePreds   []LocalPred // predicates the data-stop pushed past
	joinPreds    []joinPred  // equi-join predicates linking to earlier rels
}

// colName returns the relation-local column name for ordinal ci.
func (r *rel) colName(ci int) string { return r.table.Columns[ci].Name }

// display is column ci's display name: the relation's name, dot, the
// column's.
func (r *rel) display(ci int) qualName { return qualName{&r.ref, r.colName(ci)} }

// joinPred is an equi-join predicate: this relation's column equals a
// column of an earlier relation (identified by combined-row index).
type joinPred struct {
	col      int // column ordinal within this relation
	outerCol int // combined-row index of the matching outer column
	name     qualName
	outer    qualName
}

// local is the join predicate as a predicate on the joined row, in the
// relation's own column numbering: what an operator whose key has no
// place for it checks as a residual.
func (p joinPred) local() LocalPred {
	return LocalPred{Col: p.col, name: p.name, Op: parser.OpEq, RHS: childColExpr(p.outerCol, p.outer)}
}

func (p joinPred) String() string {
	return fmt.Sprintf("%s = %s", p.name, p.outer)
}

// boundQuery is the binder output: relations in FROM order (offsets fixed
// by FROM position), resolved sort/projection, and the query-level stop.
type boundQuery struct {
	stmt *parser.Select
	rels []rel

	sort  []SortKey
	stopK int  // LIMIT or PAGINATE page size; 0 = none
	page  bool // stop came from PAGINATE

	// Projection: either plain columns or aggregates.
	projCols  []int // combined-row indexes
	projNames []string
	groupBy   []int
	aggs      []AggSpec

	numParams int
}
