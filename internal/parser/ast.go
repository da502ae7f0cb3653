// Package parser implements the PIQL language frontend: a lexer and
// recursive-descent parser for the SQL subset extended with PAGINATE,
// CARDINALITY LIMIT (DDL), named parameters ([1: name]), and token
// search (CONTAINS), producing the AST consumed by internal/core.
//
// Each construct is read in one place: every comma list by list (or
// parenList), every count (LIMIT, PAGINATE, CARDINALITY LIMIT, VARCHAR(n),
// [n]) by positiveInt, and each positional '?' is numbered as it is read.
// The printers share writeList. testdata/parse.golden pins what every
// FuzzParse seed and every TestSyntaxErrors input parses to.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"piql/internal/schema"
	"piql/internal/value"
)

// Statement is any parsed PIQL statement.
type Statement interface {
	stmt()
	String() string
}

// --- expressions ---

// Expr is a scalar expression: literal, parameter, or column reference.
type Expr interface {
	expr()
	String() string
}

// Literal is a constant value.
type Literal struct {
	Val value.Value
}

func (Literal) expr() {}
func (l Literal) String() string {
	// Strings render SQL-style ('it''s') and floats in the lexer's
	// digits-and-a-dot form (never 1e+06) so Statement.String output
	// reparses; other types share the value rendering.
	switch l.Val.T {
	case value.TypeString:
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	case value.TypeFloat:
		s := strconv.FormatFloat(l.Val.Float(), 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	}
	return l.Val.String()
}

// Param is a query parameter: either positional (?) or the paper's
// bracketed form [1: titleWord].
type Param struct {
	Index int    // 1-based
	Name  string // optional
}

func (Param) expr() {}
func (p Param) String() string {
	if p.Name != "" {
		return fmt.Sprintf("[%d: %s]", p.Index, p.Name)
	}
	return fmt.Sprintf("[%d]", p.Index)
}

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table  string // alias or table name; "" = unqualified
	Column string
}

func (ColumnRef) expr() {}
func (c ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// CompareOp is a predicate comparison operator.
type CompareOp int

// Comparison operators. OpLike is parsed but rejected by the optimizer
// (with a rewrite suggestion); OpContains is the scale-independent token
// search the paper substitutes for LIKE.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpLike
	OpContains
)

func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpLike:
		return "LIKE"
	case OpContains:
		return "CONTAINS"
	default:
		return fmt.Sprintf("CompareOp(%d)", int(op))
	}
}

// Predicate is one conjunct of a WHERE clause: Left op Right. PIQL
// restricts WHERE clauses to conjunctions of comparisons (plus IN-lists),
// which is what keeps static analysis tractable.
type Predicate struct {
	Left  ColumnRef
	Op    CompareOp
	Right Expr
	// InList holds the right-hand side of an IN predicate; when set, Op
	// is OpEq and Right is nil.
	InList []Expr
}

func (p Predicate) String() string {
	if p.InList != nil {
		var sb strings.Builder
		sb.WriteString(p.Left.String() + " IN (")
		writeList(&sb, ", ", p.InList)
		sb.WriteString(")")
		return sb.String()
	}
	return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Right)
}

// --- SELECT ---

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregates; AggNone marks a plain column projection.
const (
	AggNone AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// aggKeywords are the aggregate keywords, indexed by AggKind: the
// parser reads them and String prints them.
var aggKeywords = [...]string{AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX"}

func (a AggKind) String() string {
	if a < AggNone || a > AggMax {
		return ""
	}
	return aggKeywords[a]
}

// SelectItem is one projection: a column, table.*, or an aggregate.
type SelectItem struct {
	Star    bool      // SELECT * or table.*
	StarOf  string    // table qualifier for table.*
	Col     ColumnRef // when not Star
	Agg     AggKind
	AggStar bool // COUNT(*)
	Alias   string
}

func (s SelectItem) String() string {
	switch {
	case s.Star && s.StarOf != "":
		return s.StarOf + ".*"
	case s.Star:
		return "*"
	case s.Agg != AggNone && s.AggStar:
		return s.Agg.String() + "(*)"
	case s.Agg != AggNone:
		return fmt.Sprintf("%s(%s)", s.Agg, s.Col)
	default:
		return s.Col.String()
	}
}

// TableRef is a FROM-clause table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the alias if present, else the table name.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Table + " " + t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY component.
type OrderItem struct {
	Col  ColumnRef
	Desc bool
}

func (o OrderItem) String() string {
	if o.Desc {
		return o.Col.String() + " DESC"
	}
	return o.Col.String() + " ASC"
}

// Select is a parsed SELECT statement. Joins are expressed either with
// explicit JOIN clauses (ON conditions folded into Where) or as a
// comma-separated FROM list with join predicates in WHERE, as in the
// paper's examples.
type Select struct {
	Items    []SelectItem
	From     []TableRef
	Where    []Predicate // conjunction
	GroupBy  []ColumnRef
	OrderBy  []OrderItem
	Limit    int // 0 = none; PIQL requires a literal bound
	Paginate int // 0 = none; page size for client-side cursors
}

func (*Select) stmt() {}

func (s *Select) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	writeList(&sb, ", ", s.Items)
	sb.WriteString(" FROM ")
	writeList(&sb, ", ", s.From)
	writeWhere(&sb, s.Where)
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		writeList(&sb, ", ", s.GroupBy)
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		writeList(&sb, ", ", s.OrderBy)
	}
	if s.Limit > 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	if s.Paginate > 0 {
		fmt.Fprintf(&sb, " PAGINATE %d", s.Paginate)
	}
	return sb.String()
}

// --- DML write statements ---

// Insert is INSERT INTO t (cols) VALUES (exprs).
type Insert struct {
	Table   string
	Columns []string // empty = all columns in table order
	Values  []Expr
}

func (*Insert) stmt() {}

func (s *Insert) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s", s.Table)
	if len(s.Columns) > 0 {
		fmt.Fprintf(&sb, " (%s)", strings.Join(s.Columns, ", "))
	}
	sb.WriteString(" VALUES (")
	writeList(&sb, ", ", s.Values)
	sb.WriteString(")")
	return sb.String()
}

// Assignment is one SET column = expr.
type Assignment struct {
	Column string
	Value  Expr
}

func (a Assignment) String() string { return a.Column + " = " + a.Value.String() }

// Update is UPDATE t SET ... WHERE <primary key equality>.
type Update struct {
	Table string
	Set   []Assignment
	Where []Predicate
}

func (*Update) stmt() {}

func (s *Update) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "UPDATE %s SET ", s.Table)
	writeList(&sb, ", ", s.Set)
	writeWhere(&sb, s.Where)
	return sb.String()
}

// Delete is DELETE FROM t WHERE <primary key equality>.
type Delete struct {
	Table string
	Where []Predicate
}

func (*Delete) stmt() {}

func (s *Delete) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "DELETE FROM %s", s.Table)
	writeWhere(&sb, s.Where)
	return sb.String()
}

func writeWhere(sb *strings.Builder, where []Predicate) {
	if len(where) == 0 {
		return
	}
	sb.WriteString(" WHERE ")
	writeList(sb, " AND ", where)
}

// writeList writes items separated by sep.
func writeList[T fmt.Stringer](sb *strings.Builder, sep string, items []T) {
	for i, it := range items {
		if i > 0 {
			sb.WriteString(sep)
		}
		sb.WriteString(it.String())
	}
}

// CreateTable wraps a parsed DDL statement.
type CreateTable struct {
	Table *schema.Table
}

func (*CreateTable) stmt() {}

func (s *CreateTable) String() string { return "CREATE TABLE " + s.Table.Name }
