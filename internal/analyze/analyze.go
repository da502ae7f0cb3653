// Package analyze is the static plan boundedness analyzer: the
// compile-time half of PIQL's scale-independence contract (Sections 4
// and 6 of the paper). It derives nothing itself: internal/core's one
// walk yields, per remote operator, the request sets it issues in the
// worst case — point gets, batch sizes, range-scan limits, join fan-out
// — and the plan's totals. The bound keeps those numbers; admission and
// the SLO model read them, and the words — each request set as a line
// of the bound naming the pinned limit or declared cardinality
// constraint it came from — are rendered only when asked for
// (Bound.Chain, Bound.String, a refusal).
//
// The bound doubles as the input to the SLO prediction model
// (internal/predict): each request carries its Θ(α, β), and
// Bound.Predict is the one way to price a query. An admission Policy
// combines both: unbounded plans are rejected outright, bounded plans
// optionally against an operation budget or a predicted-latency SLO.
package analyze

import (
	"fmt"
	"strings"
	"time"

	"piql/internal/core"
	"piql/internal/predict"
	"piql/internal/schema"
)

// OpBound is one request set's contribution to the plan bound, in
// words: a remote operator's own read, or its dereference of
// secondary-index entries. Bound.Chain renders them.
type OpBound struct {
	// Operator is the operator's EXPLAIN label.
	Operator string
	// Kind names the key/value access pattern ("point gets",
	// "range scan", "deref gets", "per-key ranges").
	Kind string
	// Ops is the worst-case number of key/value store operations the
	// operator issues per execution (core.Unbounded if no bound exists).
	Ops int
	// Tuples is the worst-case number of tuples the operator emits.
	Tuples int
	// Derivation explains the bound symbolically: which pinned limit or
	// declared cardinality constraint it came from.
	Derivation string
}

// Bound is the static analysis result for one plan.
type Bound struct {
	// Bounded reports whether every operator has a closed-form bound.
	Bounded bool
	// Ops is the worst-case total key/value operations per execution
	// (one page, for paginated queries); core.Unbounded if !Bounded.
	Ops int
	// Tuples is the worst-case tuples emitted by the plan root. A stop
	// caps rows, not reads: an unbounded plan under LIMIT n emits at most
	// n tuples, so its Tuples is n while its Ops is core.Unbounded.
	Tuples int
	// Requests are the plan's request sets leaf first
	// (core.Plan.Requests): the bound as numbers, which admission and the
	// SLO model read. Chain words them.
	Requests []core.Request
	// Offender, Reason, and Suggestions describe the first unbounded
	// operator when !Bounded.
	Offender    string
	Reason      string
	Suggestions []string
}

// Plan takes a compiled plan's static bound: its request sets
// (core.Plan.Requests), its own totals, and, for the first request with
// no bound, the refusal. A bounded plan's bound is numbers only; Chain
// and String word it on demand. Every plan the PIQL compiler emits is
// bounded (the compiler rejects the rest); plans from the cost-based
// baseline optimizer (Section 8.3) may carry unbounded scans.
func Plan(p *core.Plan) *Bound {
	b := &Bound{Bounded: true, Ops: p.OpBound(), Tuples: p.TupleBound(), Requests: p.Requests()}
	for _, r := range b.Requests {
		if r.Ops == core.Unbounded {
			b.refuse(r)
			break
		}
	}
	return b
}

// Chain words the bound leaf first, one line per request set; an
// unbounded plan's chain ends at its offender.
func (b *Bound) Chain() []OpBound {
	chain := make([]OpBound, 0, len(b.Requests))
	for _, r := range b.Requests {
		if r.Ops == core.Unbounded {
			return append(chain, OpBound{
				Operator:   b.Offender,
				Kind:       "unbounded",
				Ops:        core.Unbounded,
				Tuples:     core.Unbounded,
				Derivation: b.Reason,
			})
		}
		chain = append(chain, wordRequest(r))
	}
	return chain
}

// predictKinds maps a request's shape onto the operator model that
// prices it.
var predictKinds = [...]predict.OpKind{
	core.Gets:         predict.KindLookup,
	core.Range:        predict.KindScan,
	core.PerKeyRanges: predict.KindSortedJoin,
}

// operator labels a request set's operator: its EXPLAIN label, or, for
// a dereference, the table whose records it gets.
func operator(r core.Request) string {
	if r.Deref {
		switch n := r.Node.(type) {
		case *core.IndexScan:
			return "└ deref " + n.Table.Name
		case *core.SortedIndexJoin:
			return "└ deref " + n.Table.Name
		}
	}
	return r.Node.Label()
}

// wordRequest renders one bounded request set as a line of the bound.
func wordRequest(r core.Request) OpBound {
	var kind, d string
	switch n := r.Node.(type) {
	case *core.PKLookup:
		kind = "point gets"
		d = fmt.Sprintf("%d batched random get(s), one per bound primary key of %s", r.Alpha, n.Table.Name)
		if r.Alpha > 1 {
			d += fmt.Sprintf(" (IN list expands to %d keys)", r.Alpha)
		}
	case *core.IndexScan:
		kind = "range scan"
		if r.Deref {
			d = fmt.Sprintf("%d batched get(s): one primary-key dereference per secondary-index entry", r.Alpha)
		} else {
			d = fmt.Sprintf("1 range read of at most %d entries (%s)", r.Fetched, scanLimitSource(n))
		}
	case *core.IndexFKJoin:
		kind = "point gets"
		d = fmt.Sprintf("%d batched get(s), one per child tuple; the foreign key targets the full primary key of %s, so each joins to at most 1 row",
			r.Alpha, n.Table.Name)
	case *core.SortedIndexJoin:
		kind = "per-key ranges"
		switch {
		case r.Deref && r.Tuples < r.Fetched:
			// Ops stays the worst case, every fetched entry read once: a
			// bound that is tight but false is worth nothing.
			d = fmt.Sprintf("at most %d batched get(s) in at most 2 request sets: %d when no entry dangles; a dangling survivor pulls the rest in a second set, none is read twice", r.Alpha, r.Tuples)
		case r.Deref:
			d = fmt.Sprintf("%d batched get(s): one primary-key dereference per matching index entry", r.Alpha)
		default:
			d = fmt.Sprintf("%d parallel range read(s), one per child tuple, at most %d entries each (%s): ≤ %d tuples",
				r.Alpha, r.AlphaJ, joinLimitSource(n), r.Fetched)
			if r.Tuples < r.Fetched {
				d += fmt.Sprintf(", merged on their entry keys and stopped at %d", r.Tuples)
			}
		}
	}
	if r.Deref {
		kind = "deref gets"
	}
	return OpBound{Operator: operator(r), Kind: kind, Ops: r.Ops, Tuples: r.Tuples, Derivation: d}
}

// refuse records the first request set with no bound as the plan's
// offender: which fan-out is uncapped and what would cap it. Only a
// refusal is worded eagerly.
func (b *Bound) refuse(r core.Request) {
	b.Bounded = false
	b.Offender = r.Node.Label()
	switch n := r.Node.(type) {
	case *core.IndexScan:
		cols := strings.Join(prefixCols(n.Index, len(n.Eq)), ", ")
		b.Reason = fmt.Sprintf("index scan on %s has no pinned limit and no cardinality constraint covering (%s)", n.Index.String(), cols)
		b.Suggestions = []string{
			fmt.Sprintf("declare CARDINALITY LIMIT n (%s) on %s", cols, n.Table.Name),
			"add LIMIT or PAGINATE with ORDER BY on an indexed column to pin the fetch size",
		}
	case *core.SortedIndexJoin:
		cols := strings.Join(prefixCols(n.Index, len(n.JoinKey)), ", ")
		b.Reason = fmt.Sprintf("join fan-out on %s has no per-key bound: no cardinality constraint covers (%s)", n.Index.String(), cols)
		b.Suggestions = []string{fmt.Sprintf("declare CARDINALITY LIMIT n (%s) on %s", cols, n.Table.Name)}
	}
}

// scanLimitSource names where an IndexScan's fetch bound came from:
// a pinned LIMIT/PAGINATE hint, a declared cardinality constraint, or
// the tighter of the two.
func scanLimitSource(n *core.IndexScan) string {
	card := func() string {
		cols := prefixCols(n.Index, len(n.Eq))
		if c := n.Table.CardinalityConstraint(cols); c != nil && c.Limit == n.DataStopCard {
			return "declared " + c.String()
		}
		if n.Table.IsPrimaryKey(cols) {
			return "primary-key equality: at most 1 row"
		}
		// IN-list expansion or tokenized prefixes multiply the declared
		// limit; report the derived figure.
		return fmt.Sprintf("derived cardinality ≤ %d", n.DataStopCard)
	}
	switch {
	case n.LimitHint > 0 && n.DataStopCard > 0 && n.DataStopCard < n.LimitHint:
		return card()
	case n.LimitHint > 0:
		return fmt.Sprintf("pinned LIMIT %d", n.LimitHint)
	default:
		return card()
	}
}

// joinLimitSource names where a SortedIndexJoin's per-key bound came
// from: the thoughtstream optimization pins it at the query's stop
// cardinality, otherwise a declared cardinality constraint caps it.
func joinLimitSource(n *core.SortedIndexJoin) string {
	cols := prefixCols(n.Index, len(n.JoinKey))
	if c := n.Table.CardinalityConstraint(cols); c != nil && c.Limit == n.PerKeyLimit {
		return "declared " + c.String()
	}
	return fmt.Sprintf("LIMIT/PAGINATE pins the per-key fetch at %d (sort+stop pushdown)", n.PerKeyLimit)
}

// prefixCols returns the first k column names of an index key.
func prefixCols(ix *schema.Index, k int) []string {
	cols := ix.KeyColumns()
	if k < len(cols) {
		cols = cols[:k]
	}
	return cols
}

// PredictOps returns the plan's Θ(α, β) operator parameters leaf-first — the
// input to predict.Model.PredictOps. Nil when the plan is unbounded (no
// finite α exists).
func (b *Bound) PredictOps() []predict.Op {
	if !b.Bounded {
		return nil
	}
	ops := make([]predict.Op, len(b.Requests))
	for i, r := range b.Requests {
		ops[i] = predict.Op{Kind: predictKinds[r.Kind], Alpha: r.Alpha, AlphaJ: r.AlphaJ, Beta: r.Beta}
	}
	return ops
}

// Predict evaluates the bound against a trained SLO model.
func (b *Bound) Predict(m *predict.Model) (*predict.Prediction, error) {
	if !b.Bounded {
		return nil, fmt.Errorf("analyze: cannot predict latency of an unbounded plan")
	}
	return m.PredictOps(b.PredictOps())
}

// String renders the bound as an EXPLAIN-style table: one line per
// remote operator with its operation bound and symbolic derivation.
func (b *Bound) String() string {
	var sb strings.Builder
	for _, ob := range b.Chain() {
		sb.WriteString(fmt.Sprintf("  %-14s %8s  %s\n", ob.Kind, opsStr(ob.Ops), ob.Derivation))
	}
	if b.Bounded {
		fmt.Fprintf(&sb, "  total: ≤ %d key/value operation(s), ≤ %d tuple(s) — bounded\n", b.Ops, b.Tuples)
	} else {
		fmt.Fprintf(&sb, "  total: UNBOUNDED — %s\n", b.Reason)
	}
	return sb.String()
}

func opsStr(n int) string {
	if n == core.Unbounded {
		return "∞"
	}
	return fmt.Sprintf("%d ops", n)
}

// ErrUnbounded reports a plan refused by admission control because no
// static operation bound exists: some operator's fan-out has no
// declared cardinality cap and no pinned limit.
type ErrUnbounded struct {
	// SQL is the offending query text.
	SQL string
	// Operator labels the first unbounded operator.
	Operator string
	// Reason explains why no bound exists.
	Reason string
	// Chain lists the plan's remote operators leaf-first, ending at the
	// offender.
	Chain []string
	// Suggestions are concrete fixes (cardinality limits, pagination).
	Suggestions []string
}

func (e *ErrUnbounded) Error() string {
	msg := fmt.Sprintf("analyze: query refused: no static operation bound: %s", e.Reason)
	if len(e.Chain) > 0 {
		msg += "\n  operator chain: " + strings.Join(e.Chain, " → ")
	}
	for _, s := range e.Suggestions {
		msg += "\n  suggestion: " + s
	}
	return msg
}

// ErrOverSLO reports a bounded plan refused by admission control: its
// static bound exceeds the configured operation budget, or its
// predicted 99th-percentile latency exceeds the SLO.
type ErrOverSLO struct {
	// SQL is the offending query text.
	SQL string
	// Ops is the plan's static operation bound.
	Ops int
	// MaxOps is the configured budget (0 if the refusal was
	// latency-based).
	MaxOps int
	// SLO and Predicted are set for latency-based refusals: the plan's
	// predicted 99th-percentile latency (at the policy quantile) exceeds
	// the objective.
	SLO       time.Duration
	Predicted time.Duration
	// Quantile is the fraction of intervals the SLO must hold in.
	Quantile float64
	// Chain lists the plan's remote operators leaf-first.
	Chain []string
}

func (e *ErrOverSLO) Error() string {
	var msg string
	if e.MaxOps > 0 {
		msg = fmt.Sprintf("analyze: query refused: static bound of %d key/value operations exceeds the budget of %d", e.Ops, e.MaxOps)
	} else {
		msg = fmt.Sprintf("analyze: query refused: predicted p99 of %v (in %.0f%% of intervals) exceeds the %v SLO",
			e.Predicted, e.Quantile*100, e.SLO)
	}
	if len(e.Chain) > 0 {
		msg += "\n  operator chain: " + strings.Join(e.Chain, " → ")
	}
	return msg
}

// Policy is the engine's admission-control configuration: what Prepare
// refuses. The zero policy admits everything (analysis still runs and
// the bound is attached to the prepared plan).
type Policy struct {
	// Enforce turns refusal on. With Enforce false the policy is
	// advisory: bounds and predictions are computed but nothing is
	// rejected.
	Enforce bool
	// MaxOps refuses bounded plans whose static operation bound exceeds
	// this budget (0 = no budget).
	MaxOps int
	// SLO refuses plans whose predicted 99th-percentile latency exceeds
	// this objective (0 = no latency check; requires Model).
	SLO time.Duration
	// Quantile is the fraction of training intervals the prediction
	// must meet the SLO in (default 0.9, per Section 6.3).
	Quantile float64
	// Model is the trained per-operator latency model the SLO check
	// evaluates against.
	Model *predict.Model
}

// OperatorChain labels the bound's operators leaf-first, ending at an
// unbounded plan's offender, for a refusal to report.
func (b *Bound) OperatorChain() []string {
	out := make([]string, 0, len(b.Requests))
	for _, r := range b.Requests {
		if r.Ops == core.Unbounded {
			return append(out, b.Offender)
		}
		out = append(out, operator(r))
	}
	return out
}

// Admit decides whether a plan with the given bound may be prepared.
// It returns nil, a *ErrUnbounded, or a *ErrOverSLO.
func (p *Policy) Admit(sql string, b *Bound) error {
	if p == nil || !p.Enforce {
		return nil
	}
	if !b.Bounded {
		return &ErrUnbounded{
			SQL:         sql,
			Operator:    b.Offender,
			Reason:      b.Reason,
			Chain:       b.OperatorChain(),
			Suggestions: b.Suggestions,
		}
	}
	if p.MaxOps > 0 && b.Ops > p.MaxOps {
		return &ErrOverSLO{SQL: sql, Ops: b.Ops, MaxOps: p.MaxOps, Chain: b.OperatorChain()}
	}
	if p.SLO > 0 && p.Model != nil {
		q := p.Quantile
		if q <= 0 {
			q = 0.9
		}
		pred, err := b.Predict(p.Model)
		if err != nil {
			// Enforcement is strict: a plan whose latency cannot be
			// evaluated is refused rather than waved through.
			return fmt.Errorf("analyze: admission cannot evaluate plan against SLO: %w", err)
		}
		if got := pred.Quantile99(q); got > p.SLO {
			return &ErrOverSLO{
				SQL:       sql,
				Ops:       b.Ops,
				SLO:       p.SLO,
				Predicted: got,
				Quantile:  q,
				Chain:     b.OperatorChain(),
			}
		}
	}
	return nil
}
