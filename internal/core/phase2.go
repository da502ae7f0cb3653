package core

import (
	"fmt"
	"slices"
	"strings"

	"piql/internal/parser"
	"piql/internal/schema"
	"piql/internal/value"
)

// phase2 implements Algorithm 2 (PlanGenerate): it maps each relation's
// access chain onto one of the three bounded remote operators —
// PKLookup/IndexScan for the base relation, IndexFKJoin or
// SortedIndexJoin for joined relations — wrapping residual predicates,
// sort, stop, aggregation, and projection as local operators. Any
// section it cannot bound aborts compilation with assistant feedback.
type phase2Ctx struct {
	cat      Catalog
	q        *boundQuery
	order    []*rel
	required []*schema.Index
	ordered  bool // current plan emits rows in q.sort order
}

func phase2(cat Catalog, q *boundQuery, order []*rel) (Physical, []*schema.Index, error) {
	ctx := &phase2Ctx{cat: cat, q: q, order: order}
	plan, err := ctx.matchBase(order[0])
	if err != nil {
		return nil, nil, err
	}
	for _, r := range order[1:] {
		plan, err = ctx.matchJoin(plan, r)
		if err != nil {
			return nil, nil, err
		}
	}
	if len(q.sort) > 0 && !ctx.ordered {
		plan = &LocalSort{ChildPlan: plan, Keys: q.sort}
	}
	if len(q.aggs) > 0 {
		names := make([]string, len(q.aggs))
		for i, a := range q.aggs {
			names[i] = a.Name
		}
		plan = &LocalAgg{ChildPlan: plan, GroupBy: q.groupBy, Aggs: q.aggs, Names: names}
	}
	if q.stopK > 0 {
		plan = &LocalStop{ChildPlan: plan, K: q.stopK}
	}
	if len(q.aggs) == 0 {
		plan = &LocalProject{ChildPlan: plan, Cols: q.projCols, Names: q.projNames}
	}
	return plan, ctx.required, nil
}

// predSplit counts a relation's own predicates by the part of a
// contiguous index section each can be (limitHintScan), and keeps the
// one column the inequalities may bound.
type predSplit struct {
	eq, token, other int  // col = const/param; col CONTAINS word; IN lists, != and anything else, which can be none
	rangeCol         int  // the column of the first inequality, -1 when none
	twoRanges        bool // an inequality bounds a second column
}

// sectionPart is the part of an index section a predicate can be.
type sectionPart int

const (
	partEq sectionPart = iota
	partToken
	partRange
	partNone
)

func partOf(p LocalPred) sectionPart {
	switch {
	case p.Op == parser.OpEq && p.InList == nil:
		return partEq
	case p.Op == parser.OpContains:
		return partToken
	case p.Op == parser.OpLt || p.Op == parser.OpLe || p.Op == parser.OpGt || p.Op == parser.OpGe:
		return partRange
	}
	return partNone
}

func splitPreds(r *rel) predSplit {
	s := predSplit{rangeCol: -1}
	for _, preds := range r.ownPreds() {
		for _, p := range preds {
			switch partOf(p) {
			case partEq:
				s.eq++
			case partToken:
				s.token++
			case partRange:
				if s.rangeCol < 0 {
					s.rangeCol = p.Col
				} else if p.Col != s.rangeCol {
					s.twoRanges = true
				}
			default:
				s.other++
			}
		}
	}
	return s
}

// --- base relation access ---

func (ctx *phase2Ctx) matchBase(r *rel) (Physical, error) {
	// Case 1: equality (or IN) coverage of the full primary key —
	// bounded random lookups (Fig. 7's PIQL plan).
	if plan, ok := pkLookup(r); ok {
		ctx.ordered = len(ctx.q.sort) == 0
		return plan, nil
	}
	// Case 2: a data-stop bounds the matching tuples.
	if r.dataStopCard > 0 {
		return ctx.boundedIndexScan(r)
	}
	// Case 3: no schema bound; a stop with a fully index-expressible
	// predicate set still yields a bounded plan (Class I: fixed LIMIT
	// without joins). With joins, the stop may push below them only when
	// every later join is provably non-reductive — the rule that admits
	// the paper's search-by-title plan, where the stop of 50 sits under
	// the author join.
	if ctx.stopLimitsFetch(r) {
		return ctx.limitHintScan(r, splitPreds(r))
	}
	return nil, ctx.unboundedRelation(r)
}

// stopLimitsFetch reports whether the query-level stop may act as the
// fetch limit of r's access: every relation after r must join 1:1
// through a declared foreign key onto its primary key (guaranteed
// existence, so the join never drops rows) and carry no predicates of
// its own, and no aggregate may sit between them and the stop. Under a
// join that can drop rows the first stopK entries are not the first
// stopK results, and fetching only them returns a silently short page;
// under an aggregate the stop counts groups, and fetching only stopK
// entries counts stopK rows where the group holds more.
func (ctx *phase2Ctx) stopLimitsFetch(r *rel) bool {
	if ctx.q.stopK == 0 || len(ctx.q.aggs) > 0 {
		return false
	}
	at := 0
	for ctx.order[at] != r {
		at++
	}
	for _, later := range ctx.order[at+1:] {
		if len(later.eqPreds) > 0 || len(later.otherPreds) > 0 {
			return false
		}
		if !ctx.keyedByForeignKey(later) {
			return false
		}
	}
	return true
}

// keyedByForeignKey reports whether the join into r follows a declared
// FOREIGN KEY of one other relation of the plan onto r's primary key.
func (ctx *phase2Ctx) keyedByForeignKey(r *rel) bool {
	for _, src := range ctx.order {
		if src == r {
			continue
		}
		for _, fk := range src.table.ForeignKeys {
			if len(fk.Columns) == len(r.table.PrimaryKey) && strings.EqualFold(fk.RefTable, r.table.Name) &&
				joinFollows(src, r, fk.Columns) {
				return true
			}
		}
	}
	return false
}

// joinFollows reports whether the join predicates into r pair r's
// primary key with src's columns fkCols by position: primary-key column
// i is joined to fkCols[i] for every i, and no join predicate is
// anything else. Membership is not enough: against FOREIGN KEY (x, y),
// p.a = c.y AND p.b = c.x names the key's columns, but a row of c need
// not find its row of p that way.
func joinFollows(src, r *rel, fkCols []string) bool {
	pk := r.table.PrimaryKey
	for _, jp := range r.joinPreds {
		i := 0
		for i < len(pk) && !lowerEqual(pk[i], r.colName(jp.col)) {
			i++
		}
		oc := jp.outerCol - src.offset
		if i == len(pk) || oc < 0 || oc >= len(src.table.Columns) || !lowerEqual(src.colName(oc), fkCols[i]) {
			return false
		}
	}
	for _, name := range pk {
		joined := false
		for _, jp := range r.joinPreds {
			joined = joined || lowerEqual(name, r.colName(jp.col))
		}
		if !joined {
			return false
		}
	}
	return true
}

// keyPick chooses, column by column, the one predicate that supplies a
// key component and remembers the choice, so that rest returns every
// predicate the key does not stand for. A second equality on a keyed
// column, or a join predicate the key has no place for, still has to
// hold: dropped, the operator returns rows that fail it.
type keyPick struct {
	r *rel
	// used has a bit per claimed predicate of r.joinPreds followed by
	// r.eqPreds. The shift drops the bits of a 65th predicate and later:
	// one that keys a column stays in rest as well, checked twice.
	used uint64
}

// take claims the predicate that keys column ci and returns it: the
// first join predicate on the column (as col = outer column), else the
// first plain equality, else — where the key may fan out, inList — the
// first IN list. It reports false when there is none or the column is
// keyed already.
func (k *keyPick) take(ci int, inList bool) (LocalPred, bool) {
	joins, at := len(k.r.joinPreds), -1
	for i, jp := range k.r.joinPreds {
		if jp.col == ci {
			at = i
			break
		}
	}
	if at < 0 {
		for i, p := range k.r.eqPreds {
			if p.Col != ci || p.Op != parser.OpEq {
				continue
			}
			if p.InList == nil {
				at = joins + i
				break
			}
			if inList && at < 0 {
				at = joins + i
			}
		}
	}
	if at < 0 || k.used&(1<<at) != 0 {
		return LocalPred{}, false
	}
	k.used |= 1 << at
	if at < joins {
		return k.r.joinPreds[at].local(), true
	}
	return k.r.eqPreds[at-joins], true
}

// covers reports whether take finds a predicate for every primary-key
// column of r, in key order, and into how many keys their IN lists
// multiply out (1 without inList). It claims nothing: the caller sizes
// what it builds first, then takes them.
func (k keyPick) covers(inList bool) (keys int, ok bool) {
	keys = 1
	for _, col := range k.r.table.PrimaryKey {
		p, ok := k.take(k.r.table.ColumnIndex(col), inList)
		if !ok {
			return 0, false
		}
		if p.InList != nil {
			keys *= len(p.InList)
		}
	}
	return keys, true
}

// left counts the predicates no key component stands for.
func (k *keyPick) left() int {
	n := len(k.r.otherPreds)
	for i := range len(k.r.joinPreds) + len(k.r.eqPreds) {
		if k.used&(1<<i) == 0 {
			n++
		}
	}
	return n
}

// rest returns the predicates no key component stands for, join
// predicates first, then r's own in their order, rebased onto the
// combined row like shiftPreds does: r's columns start at offset.
func (k *keyPick) rest(offset int) []LocalPred {
	n := k.left()
	if n == 0 {
		return nil
	}
	rest := make([]LocalPred, 0, n)
	for i, jp := range k.r.joinPreds {
		if k.used&(1<<i) == 0 {
			rest = append(rest, jp.local())
		}
	}
	for i, p := range k.r.eqPreds {
		if k.used&(1<<(len(k.r.joinPreds)+i)) == 0 {
			rest = append(rest, p)
		}
	}
	rest = append(rest, k.r.otherPreds...)
	for i := range rest {
		rest[i].Col += offset
	}
	return rest
}

// pkLookup matches equality predicates (or IN lists, expanded to their
// cartesian product) against the full primary key. Every key is carved
// from one slab, earlier columns major: key k takes the element
// k / stride % len of column j's IN list, stride being the number of
// keys the columns after j multiply out to.
func pkLookup(r *rel) (*PKLookup, bool) {
	n, ok := keyPick{r: r}.covers(true)
	if !ok {
		return nil, false
	}
	pk := r.table.PrimaryKey
	w := len(pk)
	slab, keys := make([]KeyExpr, n*w), make([]KeySpec, n)
	for k := range keys {
		keys[k] = slab[k*w : (k+1)*w : (k+1)*w]
	}
	pick, stride := keyPick{r: r}, n
	for j, col := range pk {
		p, _ := pick.take(r.table.ColumnIndex(col), true)
		if p.InList == nil {
			for k := range keys {
				keys[k][j] = p.RHS
			}
			continue
		}
		stride /= len(p.InList)
		for k := range keys {
			keys[k][j] = p.InList[k/stride%len(p.InList)]
		}
	}
	return &PKLookup{Table: r.table, TableOffset: r.offset, Skip: r.skip(), Keys: keys, Residual: pick.rest(r.offset)}, true
}

// boundedIndexScan builds the access path when a data-stop bounds the
// relation: an index over the constraint columns (extended with sort
// columns when that unlocks a limit hint), fetching at most the
// cardinality, with remaining predicates as a local selection — the
// paper's preferred shape, since it avoids indexing volatile attributes
// like SCADr's `approved` flag.
func (ctx *phase2Ctx) boundedIndexScan(r *rel) (Physical, error) {
	var buf [8]schema.IndexField
	fields := buf[:0]
	eq := make([]KeyExpr, 0, len(r.belowPreds))
	for _, p := range r.belowPreds {
		if p.InList != nil {
			return nil, &NotScaleIndependentError{
				Query:   ctx.q.stmt.String(),
				Segment: fmt.Sprintf("relation %s", r.ref.Name()),
				Reason:  "IN predicates over cardinality-constraint columns are only supported when the full primary key is covered",
				Suggestions: []string{
					"cover the full primary key with equality predicates so the IN list expands to bounded random lookups",
				},
			}
		}
		fields = append(fields, schema.IndexField{Column: r.colName(p.Col)})
		eq = append(eq, p.RHS)
	}

	limitHint := 0
	sortSatisfied := false
	if len(r.abovePreds) == 0 {
		// Extend the index with the sort columns: the scan then yields
		// rows in query order and the stop can become a fetch limit.
		fields, sortSatisfied = ctx.sortOnRelation(r, fields)
		if (sortSatisfied || len(ctx.q.sort) == 0) && ctx.stopLimitsFetch(r) {
			limitHint = boundMin(ctx.q.stopK, r.dataStopCard)
		}
	}
	ix, reversed := ctx.ensureIndex(r.table, fields, len(eq))
	scan := &IndexScan{
		Table:        r.table,
		TableOffset:  r.offset,
		Skip:         r.skip(),
		Index:        ix,
		Eq:           eq,
		Ascending:    !reversed,
		LimitHint:    limitHint,
		DataStopCard: r.dataStopCard,
		Residual:     shiftPreds(r.abovePreds, r.offset),
		NeedDeref:    !ix.Primary,
	}
	ctx.ordered = sortSatisfied || len(ctx.q.sort) == 0
	return scan, nil
}

// limitHintScan builds a purely limit-hint-bounded scan: every predicate
// must be expressible as a contiguous index section.
func (ctx *phase2Ctx) limitHintScan(r *rel, split predSplit) (Physical, error) {
	if split.other > 0 || split.token > 1 || split.twoRanges {
		return nil, ctx.unboundedRelation(r)
	}
	var buf [8]schema.IndexField
	fields := buf[:0]
	var eq []KeyExpr
	if n := split.token + split.eq; n > 0 {
		eq = make([]KeyExpr, 0, n)
	}
	// The token field first, then the equality fields in predicate order.
	for _, part := range [2]sectionPart{partToken, partEq} {
		for _, preds := range r.ownPreds() {
			for _, p := range preds {
				if partOf(p) == part {
					fields = append(fields, schema.IndexField{Column: r.colName(p.Col), Token: part == partToken})
					eq = append(eq, p.RHS)
				}
			}
		}
	}
	// The single range column, if any, and its one bound on each side.
	var lower, upper *RangeBound
	for _, preds := range r.ownPreds() {
		for _, p := range preds {
			if partOf(p) != partRange {
				continue
			}
			b := &RangeBound{Expr: p.RHS, Inclusive: p.Op == parser.OpGe || p.Op == parser.OpLe}
			var err error
			if p.Op == parser.OpGt || p.Op == parser.OpGe {
				lower, err = ctx.tighterBound(r, p, lower, b, 1)
			} else {
				upper, err = ctx.tighterBound(r, p, upper, b, -1)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	var sorted bool
	if fields, sorted = ctx.sortOnRelation(r, fields); sorted {
		// The range column, if present, must be the first sort column
		// (otherwise the matching entries are non-contiguous).
		if split.rangeCol >= 0 && ctx.q.sort[0].Col != r.offset+split.rangeCol {
			return nil, ctx.unboundedRelation(r)
		}
	} else if len(ctx.q.sort) > 0 {
		// Sort references other relations; with a bare limit hint we
		// cannot fetch "the right" K rows before sorting.
		return nil, ctx.unboundedRelation(r)
	} else if split.rangeCol >= 0 {
		fields = append(fields, schema.IndexField{Column: r.colName(split.rangeCol)})
	}
	ix, reversed := ctx.ensureIndex(r.table, fields, len(eq))
	scan := &IndexScan{
		Table:       r.table,
		TableOffset: r.offset,
		Skip:        r.skip(),
		Index:       ix,
		Eq:          eq,
		Lower:       lower,
		Upper:       upper,
		Ascending:   !reversed,
		LimitHint:   ctx.q.stopK,
		NeedDeref:   !ix.Primary,
	}
	ctx.ordered = true
	return scan, nil
}

// tighterBound merges a second bound b of predicate p into one side of a
// limit-hint scan's range, have (nil before the first): the scan reads
// one section, and a bound it dropped could not become a residual — under
// the limit hint that returns short pages. Of two constants the tighter
// wins (dir 1 keeps the larger lower bound, -1 the smaller upper one), at
// equal values the exclusive one; a parameter cannot be ordered before it
// is bound, so it is refused.
func (ctx *phase2Ctx) tighterBound(r *rel, p LocalPred, have, b *RangeBound, dir int) (*RangeBound, error) {
	if have == nil {
		return b, nil
	}
	if have.Expr.kind != keyConst || b.Expr.kind != keyConst {
		return nil, &NotScaleIndependentError{
			Query:   ctx.q.stmt.String(),
			Segment: fmt.Sprintf("access to relation %s (%s)", r.ref.Name(), describePreds(r)),
			Reason:  fmt.Sprintf("two bounds on one side of column %s, a parameter among them: which is tighter is unknown until run time", p.name),
			Suggestions: []string{
				fmt.Sprintf("keep one lower and one upper bound on %s", p.name),
			},
		}
	}
	if c := value.Compare(b.Expr.constant, have.Expr.constant) * dir; c > 0 || c == 0 && !b.Inclusive {
		return b, nil
	}
	return have, nil
}

// --- joined relation access ---

func (ctx *phase2Ctx) matchJoin(child Physical, r *rel) (Physical, error) {
	if len(r.joinPreds) == 0 {
		return nil, &NotScaleIndependentError{
			Query:   ctx.q.stmt.String(),
			Segment: "relation " + r.ref.Name(),
			Reason:  "relation has no join predicate linking it to the rest of the plan",
			Suggestions: []string{
				"add an equality join predicate",
			},
		}
	}
	// IndexFKJoin: join columns (plus constant equalities) cover the
	// target primary key, so each child row matches at most one record.
	if plan, ok := ctx.tryFKJoin(child, r); ok {
		return plan, nil
	}
	// SortedIndexJoin (sort+stop flavor): the query's sort is entirely on
	// this relation and a stop exists; pre-sorted composite index entries
	// let us fetch only the top-K per join key.
	if plan, ok := ctx.trySortedJoin(child, r); ok {
		return plan, nil
	}
	// SortedIndexJoin (cardinality flavor): the schema bounds tuples per
	// join key; fetch them all and filter/sort locally.
	if r.dataStopCard > 0 {
		return ctx.cardBoundedJoin(child, r)
	}
	return nil, ctx.unboundedJoin(r)
}

func (ctx *phase2Ctx) tryFKJoin(child Physical, r *rel) (Physical, bool) {
	if _, ok := (keyPick{r: r}).covers(false); !ok {
		return nil, false
	}
	pick := keyPick{r: r}
	keys := make(KeySpec, len(r.table.PrimaryKey))
	for i, col := range r.table.PrimaryKey {
		p, _ := pick.take(r.table.ColumnIndex(col), false)
		keys[i] = p.RHS
	}
	// A 1:1 join preserves the child's ordering; ctx.ordered unchanged.
	return &IndexFKJoin{
		ChildPlan:   child,
		Table:       r.table,
		TableOffset: r.offset,
		Skip:        r.skip(),
		Keys:        keys,
		Residual:    pick.rest(r.offset),
	}, true
}

// joinPrefix appends the equality prefix of a sorted join's index to
// fields: one component per column, join columns first, then the
// columns of eqs. jk holds the key expressions, one per field appended.
func joinPrefix(pick *keyPick, eqs []LocalPred, fields []schema.IndexField) (_ []schema.IndexField, jk KeySpec) {
	jk = make(KeySpec, 0, len(pick.r.joinPreds)+len(eqs))
	add := func(ci int) {
		if p, ok := pick.take(ci, false); ok {
			fields = append(fields, schema.IndexField{Column: pick.r.colName(ci)})
			jk = append(jk, p.RHS)
		}
	}
	for _, jp := range pick.r.joinPreds {
		add(jp.col)
	}
	for _, p := range eqs {
		add(p.Col)
	}
	return fields, jk
}

// trySortedJoin matches the thoughtstream pattern: ORDER BY columns all
// on r, a stop above that may limit r's fetch, and no residual
// predicates on r outside the index.
func (ctx *phase2Ctx) trySortedJoin(child Physical, r *rel) (Physical, bool) {
	if !ctx.stopLimitsFetch(r) || len(ctx.q.sort) == 0 {
		return nil, false
	}
	var buf [8]schema.IndexField
	pick := keyPick{r: r}
	fields, jk := joinPrefix(&pick, r.eqPreds, buf[:0])
	// Anything left for a residual (IN lists, !=, inequalities, tokens, a
	// second equality on a column) would invalidate the per-key top-K
	// shortcut.
	if pick.left() > 0 {
		return nil, false
	}
	fields, ok := ctx.sortOnRelation(r, fields)
	if !ok {
		return nil, false
	}
	ix, reversed := ctx.ensureIndex(r.table, fields, len(jk))
	ctx.ordered = true
	// Every later join keeps each row and its order and nothing regroups
	// them (stopLimitsFetch), so the first stopK rows of the merge are the
	// page.
	return &SortedIndexJoin{
		ChildPlan:   child,
		Table:       r.table,
		TableOffset: r.offset,
		Skip:        r.skip(),
		Index:       ix,
		JoinKey:     jk,
		PerKeyLimit: ctx.q.stopK,
		Stop:        ctx.q.stopK,
		Ascending:   !reversed,
		MergeSort:   ctx.q.sort,
		NeedDeref:   !ix.Primary,
	}, true
}

// cardBoundedJoin fetches all (at most dataStopCard) matches per join
// key and applies the remaining predicates locally.
func (ctx *phase2Ctx) cardBoundedJoin(child Physical, r *rel) (Physical, error) {
	var buf [8]schema.IndexField
	pick := keyPick{r: r}
	fields, jk := joinPrefix(&pick, r.belowPreds, buf[:0])
	ix, reversed := ctx.ensureIndex(r.table, fields, len(jk))
	ctx.ordered = false // per-key fetch order is not the query order
	join := &SortedIndexJoin{
		ChildPlan:   child,
		Table:       r.table,
		TableOffset: r.offset,
		Skip:        r.skip(),
		Index:       ix,
		JoinKey:     jk,
		PerKeyLimit: r.dataStopCard,
		Ascending:   !reversed,
		Residual:    pick.rest(r.offset),
		NeedDeref:   !ix.Primary,
	}
	return join, nil
}

// --- helpers ---

// shiftPreds rebases relation-local predicate column indexes onto the
// combined row. Predicates attached to a rel during binding index the
// relation's own columns (phase I/II match them against the table), but
// an operator's Residual is evaluated at runtime against the combined
// row, where this relation's columns start at offset. Without the shift
// a residual on any relation other than the one at offset 0 silently
// compares the wrong column.
func shiftPreds(preds []LocalPred, offset int) []LocalPred {
	if offset == 0 || len(preds) == 0 {
		return preds
	}
	out := make([]LocalPred, len(preds))
	for i, p := range preds {
		p.Col += offset
		out[i] = p
	}
	return out
}

// sortOnRelation appends the ORDER BY columns to fields as index fields
// and reports true when every sort column belongs to relation r;
// otherwise it returns fields as they were.
func (ctx *phase2Ctx) sortOnRelation(r *rel, fields []schema.IndexField) ([]schema.IndexField, bool) {
	n := len(fields)
	for _, k := range ctx.q.sort {
		ci := k.Col - r.offset
		if ci < 0 || ci >= len(r.table.Columns) {
			return fields[:n], false
		}
		fields = append(fields, schema.IndexField{Column: r.colName(ci), Desc: k.Desc})
	}
	return fields, len(ctx.q.sort) > 0
}

// ensureIndex finds or names an index serving the given fields, of
// which the first prefixLen components are bound by equality (their
// direction is irrelevant). An existing index — including the table's
// primary index — whose suffix directions are all inverted serves the
// same scan in reverse, e.g. thoughts' primary key (owner, timestamp)
// scanned backwards yields ORDER BY timestamp DESC per owner.
//
// Ready indexes are preferred over building ones: a building index is
// maintained by the write path but not yet fully backfilled, so a plan
// that selects it only runs after engine.ensureBuilt flips it ready.
// When nothing serves the scan the index is only constructed: it joins
// ctx.required, where a later scan of the same plan finds it again, and
// the catalog hears of it from whoever registers Plan.RequiredIndexes.
// fields may be the caller's buffer: it is completed in place and
// copied only into an index built here.
func (ctx *phase2Ctx) ensureIndex(t *schema.Table, fields []schema.IndexField, prefixLen int) (*schema.Index, bool) {
	fields = schema.CompleteWithPK(t, fields)
	ix, rev := ctx.findIndex(t, fields, prefixLen)
	if ix == nil {
		name := fmt.Sprintf("auto_%s_%s", strings.ToLower(t.Name), fieldsSlug(fields))
		ix = &schema.Index{Name: name, Table: t.Name, Fields: slices.Clone(fields)}
	}
	ctx.noteRequired(ix)
	return ix, rev
}

// findIndex returns the first ready index of the catalog or ctx.required
// that serves fields, else the first building one, else nil. A limit
// index serves no plan: it is retired once another index counts its
// limit, and a plan must not outlive the index it reads.
func (ctx *phase2Ctx) findIndex(t *schema.Table, fields []schema.IndexField, prefixLen int) (*schema.Index, bool) {
	var building *schema.Index
	var buildingRev bool
	for _, ixs := range [2][]*schema.Index{ctx.cat.Indexes(t.Name), ctx.required} {
		for _, ix := range ixs {
			if ix.Limit || !strings.EqualFold(ix.Table, t.Name) {
				continue
			}
			rev := false
			if !matchIndex(ix, fields, prefixLen, false) {
				if !matchIndex(ix, fields, prefixLen, true) {
					continue
				}
				rev = true
			}
			if ctx.cat.IndexState(ix) == schema.StateReady {
				return ix, rev
			}
			if building == nil {
				building, buildingRev = ix, rev
			}
		}
	}
	return building, buildingRev
}

// matchIndex reports whether ix serves a scan over fields: identical
// columns/token flags throughout; equal suffix directions (or, with
// reversed, all-inverted suffix directions, served by a backward scan).
// Directions within the equality prefix never matter.
func matchIndex(ix *schema.Index, fields []schema.IndexField, prefixLen int, reversed bool) bool {
	if len(ix.Fields) != len(fields) {
		return false
	}
	for i, f := range fields {
		g := ix.Fields[i]
		if g.Token != f.Token || !strings.EqualFold(g.Column, f.Column) {
			return false
		}
		if i < prefixLen {
			continue
		}
		want := f.Desc
		if reversed {
			want = !want
		}
		if g.Desc != want {
			return false
		}
	}
	return true
}

func fieldsSlug(fields []schema.IndexField) string {
	parts := make([]string, len(fields))
	for i, f := range fields {
		s := strings.ToLower(f.Column)
		if f.Token {
			s = "tok_" + s
		}
		if f.Desc {
			s += "_desc"
		}
		parts[i] = s
	}
	return strings.Join(parts, "_")
}

// noteRequired adds ix to ctx.required once. A plan names at most an
// index per relation, so the list is sized for that at its first entry.
func (ctx *phase2Ctx) noteRequired(ix *schema.Index) {
	for _, e := range ctx.required {
		if e == ix {
			return
		}
	}
	if ctx.required == nil {
		ctx.required = make([]*schema.Index, 0, len(ctx.order))
	}
	ctx.required = append(ctx.required, ix)
}

// --- assistant feedback ---

func (ctx *phase2Ctx) unboundedRelation(r *rel) error {
	var buf [8]string
	eqCols := eqColNames(buf[:0], r, true)
	sug := []string{}
	if len(eqCols) > 0 {
		sug = append(sug, fmt.Sprintf("add `CARDINALITY LIMIT n (%s)` to table %s so the matching tuples are bounded",
			strings.Join(eqCols, ", "), r.table.Name))
	}
	if ctx.q.stopK == 0 {
		sug = append(sug, "add a LIMIT or PAGINATE clause to bound the result size")
	}
	if hasOp(r, parser.OpLike) {
		sug = append(sug, "rewrite the LIKE predicate as a tokenized search with CONTAINS (served by an inverted full-text index)")
	}
	if hasOp(r, parser.OpNe) {
		sug = append(sug, "inequality (!=) predicates cannot bound an index section; combine them with a cardinality constraint")
	}
	if len(sug) == 0 {
		sug = append(sug, "add an equality predicate on an indexed column, plus a LIMIT or PAGINATE clause")
	}
	return &NotScaleIndependentError{
		Query:       ctx.q.stmt.String(),
		Segment:     fmt.Sprintf("access to relation %s (%s)", r.ref.Name(), describePreds(r)),
		Reason:      "the number of tuples produced by this relation has no compile-time bound",
		Suggestions: sug,
	}
}

func (ctx *phase2Ctx) unboundedJoin(r *rel) error {
	var joinCols []string
	for _, jp := range r.joinPreds {
		joinCols = append(joinCols, r.table.Columns[jp.col].Name)
	}
	sug := []string{
		fmt.Sprintf("add `CARDINALITY LIMIT n (%s)` to table %s to bound tuples per join key",
			strings.Join(joinCols, ", "), r.table.Name),
	}
	if ctx.q.stopK == 0 {
		sug = append(sug, "add a LIMIT or PAGINATE clause; with an ORDER BY on the joined relation the compiler can use a pre-sorted composite index (SortedIndexJoin)")
	}
	return &NotScaleIndependentError{
		Query:       ctx.q.stmt.String(),
		Segment:     fmt.Sprintf("join into relation %s on (%s)", r.ref.Name(), strings.Join(joinCols, ", ")),
		Reason:      "the number of tuples produced per join key has no compile-time bound",
		Suggestions: sug,
	}
}

func hasOp(r *rel, op parser.CompareOp) bool {
	for _, preds := range r.ownPreds() {
		for _, p := range preds {
			if p.Op == op {
				return true
			}
		}
	}
	return false
}

func describePreds(r *rel) string {
	var parts []string
	for _, preds := range r.ownPreds() {
		for _, p := range preds {
			parts = append(parts, p.String())
		}
	}
	if len(parts) == 0 {
		return "no predicates"
	}
	return strings.Join(parts, " AND ")
}
