package exec

import (
	"fmt"
	"sort"

	"piql/internal/core"
	"piql/internal/parser"
	"piql/internal/value"
)

// runSort orders the bounded input.
func (e *executor) runSort(n *core.LocalSort) ([]value.Row, error) {
	rows, err := e.run(n.ChildPlan)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(a, b int) bool {
		return lessBySortKeys(rows[a], rows[b], n.Keys)
	})
	return rows, nil
}

func lessBySortKeys(a, b value.Row, keys []core.SortKey) bool {
	for _, k := range keys {
		c := value.Compare(a[k.Col], b[k.Col])
		if c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// runStop truncates after K rows. Where that cuts rows off a paginated
// plan, the cursor moves back from the last entry the pager consumed to
// the last row kept.
func (e *executor) runStop(n *core.LocalStop) ([]value.Row, error) {
	rows, err := e.run(n.ChildPlan)
	if err != nil {
		return nil, err
	}
	if len(rows) > n.K {
		rows = rows[:n.K]
		if e.cur != nil {
			e.rewindTo(rows[n.K-1])
		}
	}
	return rows, nil
}

// runProject maps combined rows to output rows.
func (e *executor) runProject(n *core.LocalProject) ([]value.Row, error) {
	rows, err := e.run(n.ChildPlan)
	if err != nil {
		return nil, err
	}
	out := make([]value.Row, len(rows))
	projs := newSlab(len(rows), len(n.Cols))
	for i, row := range rows {
		proj := projs.row()
		for j, c := range n.Cols {
			proj[j] = row[c]
		}
		out[i] = proj
	}
	return out, nil
}

// aggState accumulates one group.
type aggState struct {
	count   int64
	sums    []float64
	intSums []int64
	isFloat []bool
	mins    value.Row
	maxs    value.Row
	counts  []int64 // per-agg non-null counts (for AVG)
	first   value.Row
}

// runAgg computes grouped aggregates over the bounded input in the
// client tier, as Section 7.1 prescribes.
func (e *executor) runAgg(n *core.LocalAgg) ([]value.Row, error) {
	rows, err := e.run(n.ChildPlan)
	if err != nil {
		return nil, err
	}
	groups := make(map[string]*aggState)
	var order []string
	var gv [8]value.Value // the row's group values, on the stack for up to 8 columns
	var key []byte        // and their encoding: a row costs nothing, a new group its state
	for _, row := range rows {
		vals := gv[:0]
		for _, c := range n.GroupBy {
			vals = append(vals, row[c])
		}
		key = value.AppendRow(key[:0], vals)
		st, ok := groups[string(key)]
		if !ok {
			k := string(key)
			st = &aggState{
				sums:    make([]float64, len(n.Aggs)),
				intSums: make([]int64, len(n.Aggs)),
				isFloat: make([]bool, len(n.Aggs)),
				mins:    make(value.Row, len(n.Aggs)),
				maxs:    make(value.Row, len(n.Aggs)),
				counts:  make([]int64, len(n.Aggs)),
				first:   row,
			}
			groups[k] = st
			order = append(order, k)
		}
		st.count++
		for i, a := range n.Aggs {
			if a.Col < 0 || a.Kind == parser.AggNone || a.Kind == parser.AggCount {
				continue
			}
			v := row[a.Col]
			if v.IsNull() {
				continue
			}
			st.counts[i]++
			switch v.T {
			case value.TypeInt:
				st.intSums[i] += v.I
				st.sums[i] += float64(v.I)
			case value.TypeFloat:
				st.isFloat[i] = true
				st.sums[i] += v.Float()
			default:
				if a.Kind == parser.AggSum || a.Kind == parser.AggAvg {
					return nil, fmt.Errorf("exec: %s over non-numeric column %s", a.Kind, a.Name)
				}
			}
			if st.counts[i] == 1 || value.Compare(v, st.mins[i]) < 0 {
				st.mins[i] = v
			}
			if st.counts[i] == 1 || value.Compare(v, st.maxs[i]) > 0 {
				st.maxs[i] = v
			}
		}
	}
	out := make([]value.Row, 0, len(groups))
	for _, key := range order {
		st := groups[key]
		row := make(value.Row, len(n.Aggs))
		for i, a := range n.Aggs {
			switch a.Kind {
			case parser.AggNone:
				row[i] = st.first[a.Col]
			case parser.AggCount:
				if a.Col < 0 {
					row[i] = value.Int(st.count)
				} else {
					row[i] = value.Int(st.counts[i])
				}
			case parser.AggSum:
				if st.isFloat[i] {
					row[i] = value.Float(st.sums[i])
				} else {
					row[i] = value.Int(st.intSums[i])
				}
			case parser.AggAvg:
				if st.counts[i] == 0 {
					row[i] = value.Null()
				} else {
					row[i] = value.Float(st.sums[i] / float64(st.counts[i]))
				}
			case parser.AggMin:
				if st.counts[i] == 0 {
					row[i] = value.Null()
				} else {
					row[i] = st.mins[i]
				}
			case parser.AggMax:
				if st.counts[i] == 0 {
					row[i] = value.Null()
				} else {
					row[i] = st.maxs[i]
				}
			}
		}
		out = append(out, row)
	}
	return out, nil
}
