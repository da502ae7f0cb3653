package core

import (
	"fmt"
	"strings"

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

// binder resolves a parsed SELECT against the catalog.
type binder struct {
	cat    Catalog
	stmt   *parser.Select
	rels   []*rel
	byName map[string]int // alias/table (lower) -> rel index

	edges     []edge
	numParams int
}

// bind produces a boundQuery plus the undirected join edges.
func bind(cat Catalog, stmt *parser.Select) (*boundQuery, []edge, error) {
	b := &binder{cat: cat, stmt: stmt, byName: make(map[string]int)}
	if err := b.bindFrom(); err != nil {
		return nil, nil, err
	}
	if err := b.bindWhere(); err != nil {
		return nil, nil, err
	}
	q := &boundQuery{stmt: stmt, rels: b.rels}
	if err := b.bindProjection(q); err != nil {
		return nil, nil, err
	}
	if err := b.bindOrderAndStop(q); err != nil {
		return nil, nil, err
	}
	q.numParams = b.numParams
	return q, b.edges, nil
}

func (b *binder) bindFrom() error {
	if len(b.stmt.From) == 0 {
		return fmt.Errorf("core: query has no FROM clause")
	}
	offset := 0
	for _, ref := range b.stmt.From {
		t := b.cat.Table(ref.Table)
		if t == nil {
			return fmt.Errorf("core: unknown table %q", ref.Table)
		}
		name := strings.ToLower(ref.Name())
		if _, dup := b.byName[name]; dup {
			return fmt.Errorf("core: duplicate table name or alias %q", ref.Name())
		}
		b.byName[name] = len(b.rels)
		b.rels = append(b.rels, &rel{ref: ref, table: t, offset: offset})
		offset += len(t.Columns)
	}
	return nil
}

// resolveColumn finds (relIdx, colIdx) for a column reference.
func (b *binder) resolveColumn(c parser.ColumnRef) (int, int, error) {
	if c.Table != "" {
		ri, ok := b.byName[strings.ToLower(c.Table)]
		if !ok {
			return 0, 0, fmt.Errorf("core: unknown table or alias %q", c.Table)
		}
		ci := b.rels[ri].table.ColumnIndex(c.Column)
		if ci < 0 {
			return 0, 0, fmt.Errorf("core: column %q does not exist in %q", c.Column, b.rels[ri].ref.Name())
		}
		return ri, ci, nil
	}
	foundRel, foundCol := -1, -1
	for ri, r := range b.rels {
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

func (b *binder) colDisplay(ri, ci int) string {
	return b.rels[ri].ref.Name() + "." + b.rels[ri].table.Columns[ci].Name
}

func (b *binder) bindWhere() error {
	for _, p := range b.stmt.Where {
		ri, ci, err := b.resolveColumn(p.Left)
		if err != nil {
			return err
		}
		// Column-to-column comparison: a join edge (must be equality).
		if rc, ok := p.Right.(parser.ColumnRef); ok {
			rj, cj, err := b.resolveColumn(rc)
			if err != nil {
				return err
			}
			if ri == rj {
				return fmt.Errorf("core: predicate %s compares two columns of the same relation; not supported", p)
			}
			if p.Op != parser.OpEq {
				return fmt.Errorf("core: non-equality join predicate %s is not scale-independent", p)
			}
			b.edges = append(b.edges, edge{relA: ri, colA: ci, relB: rj, colB: cj})
			continue
		}
		lp, err := b.bindLocalPred(ri, ci, p)
		if err != nil {
			return err
		}
		r := b.rels[ri]
		if lp.Op == parser.OpEq || lp.Op == parser.OpContains {
			r.eqPreds = append(r.eqPreds, lp)
		} else {
			r.otherPreds = append(r.otherPreds, lp)
		}
	}
	return nil
}

func (b *binder) bindLocalPred(ri, ci int, p parser.Predicate) (LocalPred, error) {
	col := b.rels[ri].table.Columns[ci]
	lp := LocalPred{Col: ci, Name: b.colDisplay(ri, ci), Op: p.Op}
	if p.InList != nil {
		for _, e := range p.InList {
			ke, err := b.bindKeyExpr(e, col)
			if err != nil {
				return LocalPred{}, fmt.Errorf("core: in predicate %s: %w", p, err)
			}
			lp.InList = append(lp.InList, ke)
		}
		return lp, nil
	}
	if p.Op == parser.OpContains && col.Type != value.TypeString {
		return LocalPred{}, fmt.Errorf("core: CONTAINS requires a string column, %s is %s", lp.Name, col.Type)
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
			for _, r := range b.rels {
				n += len(r.table.Columns)
			}
		case it.Star:
			if ri, ok := b.byName[strings.ToLower(it.StarOf)]; ok {
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
			for ri, r := range b.rels {
				for ci, c := range r.table.Columns {
					q.projCols = append(q.projCols, b.combined(ri, ci))
					q.projNames = append(q.projNames, c.Name)
				}
			}
		case it.Star:
			ri, ok := b.byName[strings.ToLower(it.StarOf)]
			if !ok {
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
	for _, o := range b.stmt.OrderBy {
		ri, ci, err := b.resolveColumn(o.Col)
		if err != nil {
			return err
		}
		q.sort = append(q.sort, SortKey{
			Col:  b.combined(ri, ci),
			Name: b.colDisplay(ri, ci),
			Desc: o.Desc,
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
