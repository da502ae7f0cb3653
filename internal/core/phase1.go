package core

import (
	"fmt"
	"strings"

	"piql/internal/parser"
)

// phase1 implements Algorithm 1 (StopOperatorPrepare): it finds a linear
// join ordering, performs predicate pushdown (predicates are attached to
// their relations by the binder), inserts data-stop operators wherever
// equality predicates cover a primary key or a declared cardinality
// constraint, and pushes each data-stop past every predicate other than
// the ones that caused its insertion.
//
// It returns the relations in join order with their access chains
// normalized to: abovePreds → DataStop(card) → belowPreds → Relation.
func phase1(q *boundQuery, edges []edge) ([]*rel, error) {
	order, err := joinOrder(q, edges)
	if err != nil {
		return nil, err
	}
	for i, r := range order {
		insertDataStop(r, i > 0)
	}
	return order, nil
}

// joinOrder picks a linear ordering (Line 1 of Algorithm 1): start from
// the most constrained relation and repeatedly append a relation joined
// to the prefix. Disconnected FROM lists (cartesian products) are
// rejected as inherently unbounded.
func joinOrder(q *boundQuery, edges []edge) ([]*rel, error) {
	n := len(q.rels)
	chosen := make([]bool, n)
	var order []*rel

	start := 0
	best := -1
	for i, r := range q.rels {
		s := accessScore(r)
		if s > best {
			best = s
			start = i
		}
	}
	chosen[start] = true
	order = append(order, q.rels[start])

	for len(order) < n {
		next := -1
		nextScore := -1
		for i, r := range q.rels {
			if chosen[i] {
				continue
			}
			if !connected(i, chosen, edges) {
				continue
			}
			if s := accessScore(r); s > nextScore {
				nextScore = s
				next = i
			}
		}
		if next < 0 {
			return nil, &NotScaleIndependentError{
				Query:   q.stmt.String(),
				Segment: "FROM " + q.stmt.From[0].String() + ", ...",
				Reason:  "the FROM clause contains relations with no join predicate connecting them (a cartesian product)",
				Suggestions: []string{
					"add an equality join predicate connecting every relation",
				},
			}
		}
		chosen[next] = true
		r := q.rels[next]
		orientEdges(q, r, next, chosen, edges)
		order = append(order, r)
	}
	return order, nil
}

// accessScore ranks how tightly a relation's own predicates bound it:
// full primary key (3) > cardinality constraint (2) > any equality (1).
func accessScore(r *rel) int {
	cols := eqColNames(r, true)
	switch {
	case len(cols) > 0 && r.table.IsPrimaryKey(cols):
		return 3
	case r.table.CardinalityFor(cols) > 0:
		return 2
	case len(r.eqPreds) > 0:
		return 1
	default:
		return 0
	}
}

// eqColNames returns the column names with simple equality or, with
// inLists, IN predicates (CONTAINS is excluded: a token match is not
// equality on the column, so it cannot satisfy key or cardinality
// coverage).
func eqColNames(r *rel, inLists bool) []string {
	var cols []string
	for _, p := range r.eqPreds {
		if p.Op == parser.OpEq && (inLists || p.InList == nil) {
			cols = append(cols, r.table.Columns[p.Col].Name)
		}
	}
	return cols
}

func connected(i int, chosen []bool, edges []edge) bool {
	for _, e := range edges {
		if (e.relA == i && chosen[e.relB]) || (e.relB == i && chosen[e.relA]) {
			return true
		}
	}
	return false
}

// orientEdges converts every edge between r (index ri) and an
// already-chosen relation into a joinPred on r.
func orientEdges(q *boundQuery, r *rel, ri int, chosen []bool, edges []edge) {
	for _, e := range edges {
		var myCol, otherRel, otherCol int
		switch {
		case e.relA == ri && chosen[e.relB] && e.relB != ri:
			myCol, otherRel, otherCol = e.colA, e.relB, e.colB
		case e.relB == ri && chosen[e.relA] && e.relA != ri:
			myCol, otherRel, otherCol = e.colB, e.relA, e.colA
		default:
			continue
		}
		or := q.rels[otherRel]
		r.joinPreds = append(r.joinPreds, joinPred{
			col:      myCol,
			name:     r.ref.Name() + "." + r.table.Columns[myCol].Name,
			outerCol: or.offset + otherCol,
			outerStr: or.ref.Name() + "." + or.table.Columns[otherCol].Name,
		})
	}
}

// insertDataStop implements Lines 3-12 of Algorithm 1 for one relation:
// if the relation's equality predicates (plus, for joined relations, its
// equi-join columns) cover the primary key or a cardinality constraint,
// a data-stop with the corresponding cardinality is inserted above the
// covering predicates, then pushed past all other predicates — which is
// legal precisely because the constraint bounds how many matching tuples
// can exist in the database, not how many the query wants.
func insertDataStop(r *rel, joined bool) {
	// A joined relation is read with one key per child row, and an IN
	// list can be no part of such a key: there it neither covers a
	// constraint nor multiplies one, and stays a selection above.
	eqCols := eqColNames(r, !joined)
	if joined {
		for _, jp := range r.joinPreds {
			eqCols = append(eqCols, r.table.Columns[jp.col].Name)
		}
	}
	var coverCols []string
	card := 0
	if r.table.IsPrimaryKey(eqCols) {
		card = 1
		coverCols = r.table.PrimaryKey
	} else if c := r.table.CardinalityFor(eqCols); c > 0 {
		card = c
		coverCols = r.table.CardinalityConstraint(eqCols).Columns
	}
	if card == 0 {
		// No data-stop: every predicate stays above the relation.
		r.abovePreds = append(append([]LocalPred{}, r.eqPreds...), r.otherPreds...)
		return
	}
	// IN-lists on covering columns multiply the bound: each list element
	// is a separate equality binding.
	for _, p := range r.eqPreds {
		if !joined && p.Op == parser.OpEq && p.InList != nil && containsFold(coverCols, r.table.Columns[p.Col].Name) {
			card = boundMul(card, len(p.InList))
		}
	}
	r.dataStopCard = card
	for _, p := range r.eqPreds {
		if p.Op == parser.OpEq && (p.InList == nil || !joined) && containsFold(coverCols, r.table.Columns[p.Col].Name) {
			r.belowPreds = append(r.belowPreds, p)
		} else {
			r.abovePreds = append(r.abovePreds, p)
		}
	}
	r.abovePreds = append(r.abovePreds, r.otherPreds...)
}

func containsFold(xs []string, x string) bool {
	for _, v := range xs {
		if strings.EqualFold(v, x) {
			return true
		}
	}
	return false
}

// NotScaleIndependentError reports a query the compiler cannot bound,
// with Performance Insight Assistant feedback (Section 6.4): the
// offending plan segment and concrete suggestions.
type NotScaleIndependentError struct {
	Query       string
	Segment     string   // the problematic plan section
	Reason      string   // why it is unbounded
	Suggestions []string // assistant suggestions to make it bounded
}

func (e *NotScaleIndependentError) Error() string {
	msg := fmt.Sprintf("query is not scale-independent: %s (segment: %s)", e.Reason, e.Segment)
	for _, s := range e.Suggestions {
		msg += "\n  suggestion: " + s
	}
	return msg
}
