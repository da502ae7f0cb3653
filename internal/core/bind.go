package core

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"piql/internal/parser"
	"piql/internal/schema"
	"piql/internal/value"
)

// edge is an undirected equi-join predicate between two relations, held
// until Phase I picks a join order (which orients it).
type edge struct {
	relA, colA int
	relB, colB int
}

// binder resolves a parsed SELECT against the catalog. It sizes what it
// builds from the statement once: one relation per FROM entry, one slab
// for every relation's predicate lists, one for every IN list.
type binder struct {
	cat  Catalog
	stmt *parser.Select
	rels []rel

	edges     []edge
	numParams int
}

// bind produces a boundQuery plus what Phase I reads and no plan keeps:
// the undirected join edges, and chains, the empty tail of the predicate
// slab with room for as many predicates as the relations' eqPreds and
// otherPreds hold — every relation's abovePreds and belowPreds.
func bind(cat Catalog, stmt *parser.Select) (q *boundQuery, edges []edge, chains []LocalPred, err error) {
	b := binder{cat: cat, stmt: stmt}
	if err := b.bindFrom(); err != nil {
		return nil, nil, nil, err
	}
	if chains, err = b.bindWhere(); err != nil {
		return nil, nil, nil, err
	}
	q = &boundQuery{stmt: stmt, rels: b.rels}
	if err := b.bindProjection(q); err != nil {
		return nil, nil, nil, err
	}
	if err := b.bindOrderAndStop(q); err != nil {
		return nil, nil, nil, err
	}
	q.numParams = b.numParams
	return q, b.edges, chains, nil
}

func (b *binder) bindFrom() error {
	if len(b.stmt.From) == 0 {
		return fmt.Errorf("core: query has no FROM clause")
	}
	b.rels = make([]rel, 0, len(b.stmt.From))
	offset := 0
	for _, ref := range b.stmt.From {
		t := b.cat.Table(ref.Table)
		if t == nil {
			return fmt.Errorf("core: unknown table %q", ref.Table)
		}
		if b.relIndex(ref.Name()) >= 0 {
			return fmt.Errorf("core: duplicate table name or alias %q", ref.Name())
		}
		b.rels = append(b.rels, rel{ref: ref, table: t, offset: offset})
		offset += len(t.Columns)
	}
	return nil
}

// relIndex returns the index of the relation a table name or alias
// names, or -1. Two names match when strings.ToLower makes them equal.
func (b *binder) relIndex(name string) int {
	for i := range b.rels {
		if lowerEqual(b.rels[i].ref.Name(), name) {
			return i
		}
	}
	return -1
}

// lowerEqual reports whether strings.ToLower(a) == strings.ToLower(b),
// lower-casing neither: rune by rune, an invalid byte reading as
// utf8.RuneError as it does in strings.ToLower.
func lowerEqual(a, b string) bool {
	for a != "" && b != "" {
		ra, na := utf8.DecodeRuneInString(a)
		rb, nb := utf8.DecodeRuneInString(b)
		if ra != rb && unicode.ToLower(ra) != unicode.ToLower(rb) {
			return false
		}
		a, b = a[na:], b[nb:]
	}
	return a == b
}

// resolveColumn finds (relIdx, colIdx) for a column reference.
func (b *binder) resolveColumn(c parser.ColumnRef) (int, int, error) {
	if c.Table != "" {
		ri := b.relIndex(c.Table)
		if ri < 0 {
			return 0, 0, fmt.Errorf("core: unknown table or alias %q", c.Table)
		}
		ci := b.rels[ri].table.ColumnIndex(c.Column)
		if ci < 0 {
			return 0, 0, fmt.Errorf("core: column %q does not exist in %q", c.Column, b.rels[ri].ref.Name())
		}
		return ri, ci, nil
	}
	foundRel, foundCol := -1, -1
	for ri := range b.rels {
		r := &b.rels[ri]
		if ci := r.table.ColumnIndex(c.Column); ci >= 0 {
			if foundRel >= 0 {
				return 0, 0, fmt.Errorf("core: column %q is ambiguous (in %q and %q)",
					c.Column, b.rels[foundRel].ref.Name(), r.ref.Name())
			}
			foundRel, foundCol = ri, ci
		}
	}
	if foundRel < 0 {
		return 0, 0, fmt.Errorf("core: unknown column %q", c.Column)
	}
	return foundRel, foundCol, nil
}

// combined returns the combined-row index for (relIdx, colIdx).
func (b *binder) combined(ri, ci int) int { return b.rels[ri].offset + ci }

// bindWhere binds the WHERE clause in its own order, so that the error
// reported is the first the text holds. The lists it fills are sized
// once, from the statement: the join edges, every IN list (one slab of
// KeyExprs), and one slab of LocalPreds with two halves. Each local
// predicate is bound into the second half, its Col the combined-row
// index; then each relation's eqPreds and otherPreds are copied out, in
// WHERE order and back in the relation's own numbering, as adjacent
// windows of the first half. The second half, empty, is returned for
// Phase I's chains.
func (b *binder) bindWhere() ([]LocalPred, error) {
	nLocal, nIn := 0, 0
	for _, p := range b.stmt.Where {
		if _, join := p.Right.(parser.ColumnRef); join {
			continue
		}
		nLocal++
		nIn += len(p.InList)
	}
	if n := len(b.stmt.Where) - nLocal; n > 0 {
		b.edges = make([]edge, 0, n)
	}
	var ins []KeyExpr
	if nIn > 0 {
		ins = make([]KeyExpr, nIn)
	}
	slab := make([]LocalPred, 2*nLocal)
	bound := slab[nLocal:nLocal]
	for _, p := range b.stmt.Where {
		ri, ci, err := b.resolveColumn(p.Left)
		if err != nil {
			return nil, err
		}
		// Column-to-column comparison: a join edge (must be equality).
		if rc, ok := p.Right.(parser.ColumnRef); ok {
			rj, cj, err := b.resolveColumn(rc)
			if err != nil {
				return nil, err
			}
			if ri == rj {
				return nil, fmt.Errorf("core: predicate %s compares two columns of the same relation; not supported", p)
			}
			if p.Op != parser.OpEq {
				return nil, fmt.Errorf("core: non-equality join predicate %s is not scale-independent", p)
			}
			b.edges = append(b.edges, edge{relA: ri, colA: ci, relB: rj, colB: cj})
			continue
		}
		lp, err := b.bindLocalPred(ri, ci, p, ins[:len(p.InList):len(p.InList)])
		if err != nil {
			return nil, err
		}
		ins = ins[len(p.InList):]
		lp.Col = b.combined(ri, ci)
		bound = append(bound, lp)
	}
	free := slab[:0]
	for ri := range b.rels {
		r := &b.rels[ri]
		r.eqPreds, free = cut(r.appendPreds(free, bound, true))
		r.otherPreds, free = cut(r.appendPreds(free, bound, false))
	}
	return slab[nLocal:nLocal], nil
}

// appendPreds appends to dst, rebased on r's own columns, the predicates
// of bound on r that are (eq) or are not equalities and CONTAINS.
func (r *rel) appendPreds(dst, bound []LocalPred, eq bool) []LocalPred {
	for _, p := range bound {
		if ci := p.Col - r.offset; ci >= 0 && ci < len(r.table.Columns) &&
			(p.Op == parser.OpEq || p.Op == parser.OpContains) == eq {
			p.Col = ci
			dst = append(dst, p)
		}
	}
	return dst
}

// cut ends a window that was filled by appending to the empty, unused
// tail of a slab: it returns the window capped at its length, so that
// appending to it cannot write into the next, and the tail after it.
func cut[T any](filled []T) (window, tail []T) {
	n := len(filled)
	return filled[:n:n], filled[n:n]
}

// bindLocalPred binds p, on column ci of relation ri, its IN list into
// in (len(p.InList) long).
func (b *binder) bindLocalPred(ri, ci int, p parser.Predicate, in []KeyExpr) (LocalPred, error) {
	col := b.rels[ri].table.Columns[ci]
	lp := LocalPred{Col: ci, name: b.rels[ri].display(ci), Op: p.Op}
	if p.InList != nil {
		for i, e := range p.InList {
			ke, err := b.bindKeyExpr(e, col)
			if err != nil {
				return LocalPred{}, fmt.Errorf("core: in predicate %s: %w", p, err)
			}
			in[i] = ke
		}
		lp.InList = in
		return lp, nil
	}
	if p.Op == parser.OpContains && col.Type != value.TypeString {
		return LocalPred{}, fmt.Errorf("core: CONTAINS requires a string column, %s is %s", lp.name, col.Type)
	}
	ke, err := b.bindKeyExpr(p.Right, col)
	if err != nil {
		return LocalPred{}, fmt.Errorf("core: predicate %s: %w", p, err)
	}
	lp.RHS = ke
	return lp, nil
}

// bindKeyExpr binds a literal or parameter, type-checking literals
// against the column.
func (b *binder) bindKeyExpr(e parser.Expr, col schema.Column) (KeyExpr, error) {
	switch e := e.(type) {
	case parser.Literal:
		v := e.Val
		// Integer literals widen to float columns.
		if col.Type == value.TypeFloat && v.T == value.TypeInt {
			v = value.Float(float64(v.I))
		}
		if !v.IsNull() && v.T != col.Type {
			return KeyExpr{}, fmt.Errorf("type mismatch: column %q is %s, literal is %s", col.Name, col.Type, v.T)
		}
		return constExpr(v), nil
	case parser.Param:
		if e.Index > b.numParams {
			b.numParams = e.Index
		}
		return paramExpr(e), nil
	case parser.ColumnRef:
		return KeyExpr{}, fmt.Errorf("column reference %s not allowed here", e)
	default:
		return KeyExpr{}, fmt.Errorf("unsupported expression %s", e)
	}
}

// bindProjection sizes the projection lists once, each star counting its
// tables' columns, then fills them.
func (b *binder) bindProjection(q *boundQuery) error {
	n := 0
	for _, it := range b.stmt.Items {
		switch {
		case it.Agg != parser.AggNone:
			return b.bindAggProjection(q)
		case it.Star && it.StarOf == "":
			for ri := range b.rels {
				n += len(b.rels[ri].table.Columns)
			}
		case it.Star:
			if ri := b.relIndex(it.StarOf); ri >= 0 {
				n += len(b.rels[ri].table.Columns)
			}
		default:
			n++
		}
	}
	q.projCols, q.projNames = make([]int, 0, n), make([]string, 0, n)
	for _, it := range b.stmt.Items {
		switch {
		case it.Star && it.StarOf == "":
			for ri := range b.rels {
				for ci, c := range b.rels[ri].table.Columns {
					q.projCols = append(q.projCols, b.combined(ri, ci))
					q.projNames = append(q.projNames, c.Name)
				}
			}
		case it.Star:
			ri := b.relIndex(it.StarOf)
			if ri < 0 {
				return fmt.Errorf("core: unknown table or alias %q in %s.*", it.StarOf, it.StarOf)
			}
			for ci, c := range b.rels[ri].table.Columns {
				q.projCols = append(q.projCols, b.combined(ri, ci))
				q.projNames = append(q.projNames, c.Name)
			}
		default:
			ri, ci, err := b.resolveColumn(it.Col)
			if err != nil {
				return err
			}
			name := it.Alias
			if name == "" {
				name = b.rels[ri].table.Columns[ci].Name
			}
			q.projCols = append(q.projCols, b.combined(ri, ci))
			q.projNames = append(q.projNames, name)
		}
	}
	return nil
}

func (b *binder) bindAggProjection(q *boundQuery) error {
	for _, g := range b.stmt.GroupBy {
		ri, ci, err := b.resolveColumn(g)
		if err != nil {
			return err
		}
		q.groupBy = append(q.groupBy, b.combined(ri, ci))
	}
	for _, it := range b.stmt.Items {
		switch {
		case it.Agg == parser.AggNone && !it.Star:
			ri, ci, err := b.resolveColumn(it.Col)
			if err != nil {
				return err
			}
			idx := b.combined(ri, ci)
			if !containsInt(q.groupBy, idx) {
				return fmt.Errorf("core: column %s must appear in GROUP BY or an aggregate", it.Col)
			}
			name := it.Alias
			if name == "" {
				name = b.rels[ri].table.Columns[ci].Name
			}
			q.aggs = append(q.aggs, AggSpec{Kind: parser.AggNone, Col: idx, Name: name})
		case it.Star:
			return fmt.Errorf("core: SELECT * cannot be combined with aggregates")
		case it.AggStar:
			name := it.Alias
			if name == "" {
				name = "count"
			}
			q.aggs = append(q.aggs, AggSpec{Kind: it.Agg, Col: -1, Name: name})
		default:
			ri, ci, err := b.resolveColumn(it.Col)
			if err != nil {
				return err
			}
			name := it.Alias
			if name == "" {
				name = strings.ToLower(it.Agg.String()) + "_" + b.rels[ri].table.Columns[ci].Name
			}
			q.aggs = append(q.aggs, AggSpec{Kind: it.Agg, Col: b.combined(ri, ci), Name: name})
		}
	}
	for _, a := range q.aggs {
		q.projNames = append(q.projNames, a.Name)
	}
	return nil
}

func (b *binder) bindOrderAndStop(q *boundQuery) error {
	if len(b.stmt.OrderBy) > 0 {
		q.sort = make([]SortKey, 0, len(b.stmt.OrderBy))
	}
	for _, o := range b.stmt.OrderBy {
		ri, ci, err := b.resolveColumn(o.Col)
		if err != nil {
			return err
		}
		q.sort = append(q.sort, SortKey{
			Col:  b.combined(ri, ci),
			Desc: o.Desc,
			name: b.rels[ri].display(ci),
		})
	}
	switch {
	case b.stmt.Limit > 0:
		q.stopK = b.stmt.Limit
	case b.stmt.Paginate > 0:
		q.stopK = b.stmt.Paginate
		q.page = true
	}
	return nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
