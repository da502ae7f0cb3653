package core

import (
	"fmt"
	"strings"

	"piql/internal/parser"
	"piql/internal/schema"
	"piql/internal/value"
)

// Write is a bound INSERT, UPDATE or DELETE: what a Plan is to a SELECT.
// It is immutable, so one binding serves every execution of its text.
// It holds the table — tables never change once created — and no index:
// those are read from the live catalog by each execution.
type Write struct {
	Table     *schema.Table
	NumParams int
	// Row is the row an INSERT or UPDATE stores, one expression per
	// column of Table: the value the statement gives the column, else a
	// NULL constant (INSERT) or the column of the row being replaced,
	// which Eval takes as its outer row (UPDATE). Nil for a DELETE.
	Row KeySpec
	// Key is the primary key of the one row an UPDATE or DELETE names,
	// in Table.PrimaryKey order. Nil for an INSERT.
	Key KeySpec
}

// BindWrite resolves a parsed INSERT, UPDATE or DELETE against the
// catalog with the binder a SELECT goes through: every value is bound
// and type-checked against its column as a query's literals are, and the
// WHERE clause is the WHERE of SELECT * FROM table, which has to come out
// as a primary-key lookup of one key with nothing left to filter — PIQL's
// contract for point writes.
func BindWrite(cat Catalog, stmt parser.Statement) (*Write, error) {
	sel := &parser.Select{From: make([]parser.TableRef, 1)}
	switch s := stmt.(type) {
	case *parser.Insert:
		sel.From[0].Table = s.Table
	case *parser.Update:
		sel.From[0].Table, sel.Where = s.Table, s.Where
	case *parser.Delete:
		sel.From[0].Table, sel.Where = s.Table, s.Where
	default:
		return nil, fmt.Errorf("core: %T is not an INSERT, UPDATE or DELETE", stmt)
	}
	b := binder{cat: cat, stmt: sel}
	if err := b.bindFrom(); err != nil {
		return nil, err
	}
	if _, err := b.bindWhere(); err != nil {
		return nil, err
	}
	r := &b.rels[0]
	t := r.table
	w := &Write{Table: t}
	var err error
	switch s := stmt.(type) {
	case *parser.Insert:
		names := s.Columns
		if len(names) == 0 {
			for _, c := range t.Columns {
				names = append(names, c.Name)
			}
		}
		if len(s.Values) != len(names) {
			err = fmt.Errorf("%d columns but %d values", len(names), len(s.Values))
			break
		}
		assigns := make([]parser.Assignment, len(names))
		for i, name := range names {
			assigns[i] = parser.Assignment{Column: name, Value: s.Values[i]}
		}
		null := constExpr(value.Null())
		w.Row, err = b.bindRow(t, assigns, func(int) KeyExpr { return null })
	case *parser.Update:
		keep := func(ci int) KeyExpr { return childColExpr(ci, qualName{col: t.Columns[ci].Name}) }
		if w.Row, err = b.bindRow(t, s.Set, keep); err == nil {
			w.Key, err = writeKey(r)
		}
	case *parser.Delete:
		w.Key, err = writeKey(r)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", stmt, err)
	}
	w.NumParams = b.numParams
	return w, nil
}

// bindRow binds the value a statement gives each column it names —
// refusing a column named twice — into a full row of t, the columns it
// does not name filled by rest.
func (b *binder) bindRow(t *schema.Table, assigns []parser.Assignment, rest func(ci int) KeyExpr) (KeySpec, error) {
	row := make(KeySpec, len(t.Columns))
	named := make([]bool, len(t.Columns))
	for _, a := range assigns {
		ci := t.ColumnIndex(a.Column)
		if ci < 0 {
			return nil, fmt.Errorf("unknown column %q in %s", a.Column, t.Name)
		}
		if named[ci] {
			return nil, fmt.Errorf("column %q is named twice", a.Column)
		}
		named[ci] = true
		var err error
		if row[ci], err = b.bindKeyExpr(a.Value, t.Columns[ci]); err != nil {
			return nil, err
		}
	}
	for ci := range row {
		if !named[ci] {
			row[ci] = rest(ci)
		}
	}
	return row, nil
}

// writeKey reads the one row a write names off its bound WHERE clause.
func writeKey(r *rel) (KeySpec, error) {
	lookup, ok := pkLookup(r)
	if !ok || len(lookup.Keys) != 1 || len(lookup.Residual) > 0 {
		return nil, fmt.Errorf("a write names one row: WHERE must be one equality on each primary key column (%s) and nothing else",
			strings.Join(r.table.PrimaryKey, ", "))
	}
	return lookup.Keys[0], nil
}
