package core

import (
	"fmt"
	"strings"

	"piql/internal/schema"
	"piql/internal/value"
)

// Physical is a node of a compiled physical plan. Remote nodes (PKLookup,
// IndexScan, IndexFKJoin, SortedIndexJoin) issue key/value store
// operations; local nodes run entirely in the application tier.
type Physical interface {
	// Child returns the input subtree (nil for leaves).
	Child() Physical
	// Label renders just this node for EXPLAIN output.
	Label() string
}

// RangeBound is an inequality limit on the scan component following the
// equality prefix.
type RangeBound struct {
	Expr      KeyExpr
	Inclusive bool
}

// KeySpec is a full key binding: one expression per key column.
type KeySpec []KeyExpr

// PKLookup fetches at most one record per key via batched random gets:
// the access path when equality predicates (or an IN list) cover the
// whole primary key. This is the bounded-random-lookup plan of Fig. 7.
type PKLookup struct {
	Table       *schema.Table
	TableOffset int
	// Skip is the set of the table's columns (bit i: column i) whose
	// values no reader above needs: each record is decoded without them,
	// their cells left zero. It names what to leave out, so the zero
	// value decodes every column.
	Skip     uint64
	Keys     []KeySpec // cartesian expansion of IN lists
	Residual []LocalPred
}

func (n *PKLookup) Child() Physical { return nil }

func (n *PKLookup) Label() string {
	return fmt.Sprintf("PKLookup(%s, keys=%d%s)", n.Table.Name, len(n.Keys), residualStr(n.Residual))
}

// IndexScan reads one contiguous index section: equality prefix, optional
// range bounds on the next component, optional limit hint. If the index
// is secondary, matching records are dereferenced through the primary
// key (one extra batched round of gets).
type IndexScan struct {
	Table       *schema.Table
	TableOffset int
	// Skip is as PKLookup's. A pager's keeps the columns its position is
	// rebuilt from (keepPosition).
	Skip         uint64
	Index        *schema.Index
	Eq           []KeyExpr   // values for the index prefix (token value first if the index is tokenized)
	Lower        *RangeBound // on the component after the prefix
	Upper        *RangeBound
	Ascending    bool
	LimitHint    int // fetch at most this many entries (0 = use DataStopCard)
	DataStopCard int // schema-derived bound on matching entries (0 = none)
	Residual     []LocalPred
	NeedDeref    bool // secondary index: fetch records via primary key
	// Unbounded marks a scan with no static bound — only the cost-based
	// baseline optimizer (Section 8.3) ever emits one; the PIQL compiler
	// rejects such plans.
	Unbounded bool
}

func (n *IndexScan) Child() Physical { return nil }

// FetchLimit is how many entries the scan asks the store for, and so
// what its bound books: the tighter of the pinned limit and the declared
// cardinality — the section cannot hold more entries than the latter.
// 0 asks for everything; the compiler emits that only with Unbounded.
func (n *IndexScan) FetchLimit() int {
	switch {
	case n.Unbounded:
		return 0
	case n.LimitHint == 0 || n.DataStopCard > 0 && n.DataStopCard < n.LimitHint:
		return n.DataStopCard
	}
	return n.LimitHint
}

func (n *IndexScan) Label() string {
	var parts []string
	parts = append(parts, n.Index.String())
	if len(n.Eq) > 0 {
		keys := make([]string, len(n.Eq))
		for i, e := range n.Eq {
			keys[i] = e.String()
		}
		parts = append(parts, "key=("+strings.Join(keys, ", ")+")")
	}
	if n.Lower != nil {
		op := ">"
		if n.Lower.Inclusive {
			op = ">="
		}
		parts = append(parts, fmt.Sprintf("range%s%s", op, n.Lower.Expr))
	}
	if n.Upper != nil {
		op := "<"
		if n.Upper.Inclusive {
			op = "<="
		}
		parts = append(parts, fmt.Sprintf("range%s%s", op, n.Upper.Expr))
	}
	if n.Ascending {
		parts = append(parts, "ascending=true")
	} else {
		parts = append(parts, "ascending=false")
	}
	switch {
	case n.Unbounded:
		parts = append(parts, "UNBOUNDED")
	case n.LimitHint > 0:
		parts = append(parts, fmt.Sprintf("limitHint=%d", n.LimitHint))
	default:
		parts = append(parts, fmt.Sprintf("limitHint=card(%d)", n.DataStopCard))
	}
	return fmt.Sprintf("IndexScan(%s%s)", strings.Join(parts, ", "), residualStr(n.Residual))
}

// IndexFKJoin joins each child tuple to at most one record of Table via
// equality on the full primary key (the foreign-key direction bound).
type IndexFKJoin struct {
	ChildPlan   Physical
	Table       *schema.Table
	TableOffset int
	Skip        uint64  // as PKLookup's
	Keys        KeySpec // child columns / constants forming the target primary key
	Residual    []LocalPred
}

func (n *IndexFKJoin) Child() Physical { return n.ChildPlan }

func (n *IndexFKJoin) Label() string {
	keys := make([]string, len(n.Keys))
	for i, e := range n.Keys {
		keys[i] = e.String()
	}
	return fmt.Sprintf("IndexFKJoin(%s, key=(%s)%s)", n.Table.Name, strings.Join(keys, ", "), residualStr(n.Residual))
}

// SortedIndexJoin joins each child tuple to at most PerKeyLimit records
// of Table through a composite index whose entries are pre-sorted per
// join key, then merges the per-key streams. With a sort+stop above, the
// limit hint caps the per-key fetch (the thoughtstream optimization);
// otherwise PerKeyLimit comes from a cardinality constraint.
type SortedIndexJoin struct {
	ChildPlan   Physical
	Table       *schema.Table
	TableOffset int
	Skip        uint64 // as IndexScan's
	Index       *schema.Index
	JoinKey     KeySpec // child columns / constants forming the index prefix
	PerKeyLimit int
	// Stop is how many rows of the merge the query keeps, when nothing
	// between this join and the query's stop can drop or regroup rows;
	// 0 means emit every match.
	Stop      int
	Ascending bool
	// MergeSort is the output ordering (combined-row indexes) produced
	// by merging the per-key sorted streams; empty when the join output
	// needs no ordering.
	MergeSort []SortKey
	Residual  []LocalPred
	NeedDeref bool
}

func (n *SortedIndexJoin) Child() Physical { return n.ChildPlan }

func (n *SortedIndexJoin) Label() string {
	var sortProj []string
	for _, k := range n.MergeSort {
		sortProj = append(sortProj, k.String())
	}
	keys := make([]string, len(n.JoinKey))
	for i, e := range n.JoinKey {
		keys[i] = e.String()
	}
	stop := ""
	if n.Stop > 0 {
		stop = fmt.Sprintf(", stop=%d", n.Stop)
	}
	return fmt.Sprintf("SortedIndexJoin(%s, key=(%s), sortProjection=(%s), ascending=%v, limitHint=%d%s%s)",
		n.Index.String(), strings.Join(keys, ", "), strings.Join(sortProj, ", "),
		n.Ascending, n.PerKeyLimit, stop, residualStr(n.Residual))
}

// LocalSort sorts the (bounded) input in the application tier.
type LocalSort struct {
	ChildPlan Physical
	Keys      []SortKey
}

func (n *LocalSort) Child() Physical { return n.ChildPlan }
func (n *LocalSort) Label() string {
	var keys []string
	for _, k := range n.Keys {
		keys = append(keys, k.String())
	}
	return fmt.Sprintf("LocalSort(%s)", strings.Join(keys, ", "))
}

// LocalStop truncates the stream after K tuples (the standard stop
// operator of Carey & Kossmann).
type LocalStop struct {
	ChildPlan Physical
	K         int
}

func (n *LocalStop) Child() Physical { return n.ChildPlan }
func (n *LocalStop) Label() string   { return fmt.Sprintf("Stop(%d)", n.K) }

// LocalProject narrows the combined row to the projected columns.
type LocalProject struct {
	ChildPlan Physical
	Cols      []int
	Names     []string
}

func (n *LocalProject) Child() Physical { return n.ChildPlan }
func (n *LocalProject) Label() string {
	return fmt.Sprintf("Project(%s)", strings.Join(n.Names, ", "))
}

// LocalAgg computes grouped aggregates over the bounded input.
type LocalAgg struct {
	ChildPlan Physical
	GroupBy   []int
	Aggs      []AggSpec
	Names     []string
}

func (n *LocalAgg) Child() Physical { return n.ChildPlan }
func (n *LocalAgg) Label() string {
	return fmt.Sprintf("LocalAgg(groups=%d, aggs=%s)", len(n.GroupBy), strings.Join(n.Names, ", "))
}

func residualStr(preds []LocalPred) string {
	if len(preds) == 0 {
		return ""
	}
	return ", residual: " + predsStr(preds)
}

func predsStr(preds []LocalPred) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

// AppendEval resolves a KeySpec against query parameters and an outer row,
// appending one value per key column to dst: a caller that encodes the
// key and drops the values passes a row on its own stack.
func (ks KeySpec) AppendEval(dst value.Row, params []value.Value, outer value.Row) (value.Row, error) {
	for _, e := range ks {
		v, err := e.Eval(params, outer)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}
