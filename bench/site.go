package main

import (
	"fmt"

	"piql/internal/btree"
	"piql/internal/codec"
	"piql/internal/core"
	"piql/internal/engine"
	"piql/internal/exec"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/value"
)

// site is one loaded database with one client session: the thing an
// interaction runs against.
type site struct {
	cluster *kvstore.Cluster
	eng     *engine.Engine
	s       *engine.Session
	stmts   []*stmt // every prepared statement, for the layer probes

	// Tracing state; all nil or zero when tracing is off.
	tr      *tracer
	root    int32 // the current interaction's span
	maint   *index.Maintainer
	tree    *btree.Tree // the ladder's bottom rung: same keys as the store's records
	ladder  ladderCounts
	scratch value.Row
}

// ladderCounts are the counts taken at the ladder's boundaries.
type ladderCounts struct {
	statements, boundOps, rows int64
	overBound                  int // statements that used more operations than their static bound
	worstUse                   float64
}

// note records one traced statement against its static bound: the
// paper's invariant is used <= bound.
func (lc *ladderCounts) note(used int64, p *engine.Prepared, res *exec.Result) {
	bound := int64(p.Bound().Ops)
	lc.statements++
	lc.boundOps += bound
	lc.rows += int64(len(res.Rows))
	lc.worstUse = max(lc.worstUse, float64(used)/float64(bound))
	if used > bound {
		lc.overBound++
	}
}

// stmt is one prepared SELECT plus what the ladder needs to replay it
// lower down: which table's records its output rows come from and how to
// find their primary keys.
type stmt struct {
	name  string
	sql   string
	prep  *engine.Prepared
	shape string // the plan's topmost remote operator
	table *schema.Table
	// pk returns the primary key of the base-table record behind one
	// output row.
	pk func(params []value.Value, row value.Row) value.Row
	// scan, when set, returns the leading primary-key values of the
	// range the statement reads from table, and the row limit.
	scan func(params []value.Value) (lead value.Row, limit int)
	// lastParams are the parameters of its latest traced execution, which
	// the probes reuse.
	lastParams []value.Value
}

func planShape(p *core.Plan) string {
	ops := p.RemoteOps()
	if len(ops) == 0 {
		return "local"
	}
	switch ops[len(ops)-1].(type) {
	case *core.PKLookup:
		return "pk_lookup"
	case *core.IndexScan:
		return "index_scan"
	case *core.IndexFKJoin:
		return "fk_join"
	case *core.SortedIndexJoin:
		return "sorted_join"
	}
	return "other"
}

// prepare compiles sql on the site's session, digests the text and
// registers the statement for the probes.
func (st *site) prepare(in *inputs, name, sql, table string, pk func([]value.Value, value.Row) value.Row,
	scan func([]value.Value) (value.Row, int)) (*stmt, error) {
	in.text(sql)
	p, err := st.s.Prepare(sql)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", name, err)
	}
	q := &stmt{name: name, sql: sql, prep: p, shape: planShape(p.Plan()),
		table: st.eng.Catalog().Table(table), pk: pk, scan: scan}
	st.stmts = append(st.stmts, q)
	return q, nil
}

// query executes one statement. With tracing off that is all it does.
// With tracing on it walks the ladder: the same statement through the
// engine, then exec.Run directly, then the kvstore.Client reads for the
// keys of the rows that came back, then btree.Tree on the same keys,
// then the codecs on the same keys and records.
func (st *site) query(q *stmt, params ...value.Value) (*exec.Result, error) {
	if st.tr == nil {
		return q.prep.Execute(st.s, params...)
	}
	tr, cl := st.tr, st.s.Client()
	res, b, err := st.executeTraced(q.prep, q.shape, params)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.name, err)
	}
	q.lastParams = append(q.lastParams[:0], params...)

	prep := tr.begin("harness.replay_prep", st.root)
	keys := make([][]byte, len(res.Rows))
	for i, row := range res.Rows {
		keys[i] = index.RecordKeyFromPK(q.table, q.pk(params, row))
	}
	var rng kvstore.RangeRequest
	if q.scan != nil {
		lead, limit := q.scan(params)
		start := index.RecordKeyFromPK(q.table, lead)
		rng = kvstore.RangeRequest{Start: start, End: codec.PrefixEnd(start), Limit: limit}
	}
	tr.end(prep)

	c := tr.begin("kvstore.read", b)
	if q.scan != nil {
		cl.GetRange(rng)
	}
	recs := cl.MultiGet(keys)
	tr.end(c)

	d := tr.begin("btree.read", c)
	if q.scan != nil {
		n := 0
		st.tree.Ascend(rng.Start, rng.End, func(btree.Item) bool { n++; return n < rng.Limit })
	}
	for _, k := range keys {
		st.tree.Get(k)
	}
	tr.end(d)

	e := tr.begin("codec.decode", d)
	ncols := len(q.table.Columns)
	if cap(st.scratch) < ncols {
		st.scratch = make(value.Row, ncols)
	}
	for i, k := range keys {
		if _, err := codec.DecodeKey(k, 1+len(q.table.PrimaryKey), nil); err != nil {
			return nil, fmt.Errorf("ladder: decode key of %s: %w", q.name, err)
		}
		if recs[i] != nil {
			if _, err := value.DecodeRowInto(st.scratch[:ncols], recs[i]); err != nil {
				return nil, fmt.Errorf("ladder: decode record of %s: %w", q.name, err)
			}
		}
	}
	tr.end(e)
	return res, nil
}

// executeTraced is the ladder's top two rungs: the statement through the
// engine, its operations checked against the static bound, then exec.Run
// directly. It returns the result and the exec.Run span, the parent of
// the rungs below.
func (st *site) executeTraced(p *engine.Prepared, shape string, params []value.Value) (*exec.Result, int32, error) {
	tr, cl := st.tr, st.s.Client()
	ops0 := cl.Ops()
	a := tr.begin("engine.execute", st.root)
	res, err := p.Execute(st.s, params...)
	tr.end(a)
	if err != nil {
		return nil, 0, err
	}
	st.ladder.note(cl.Ops()-ops0, p, res)

	b := tr.begin("exec.run."+shape, a)
	_, err = exec.Run(p.Plan(), &exec.Ctx{Client: cl, Params: params, Strategy: exec.Parallel})
	tr.end(b)
	if err != nil {
		return nil, 0, fmt.Errorf("ladder: exec.Run: %w", err)
	}
	return res, b, nil
}

// primaryKey picks a row's primary-key values out of it.
func primaryKey(t *schema.Table, row value.Row) value.Row {
	pk := make(value.Row, len(t.PrimaryKey))
	for i, col := range t.PrimaryKey {
		pk[i] = row[t.ColumnIndex(col)]
	}
	return pk
}

// insert runs one INSERT. Its ladder replays the write one layer lower
// each time on a shadow row (same shape, primary key moved out of the
// workload's range by shadow), removing each replay's row again so the
// data the workload reads is as if tracing were off.
func (st *site) insert(sql string, table *schema.Table, shadow func(value.Row) value.Row, row ...value.Value) error {
	if st.tr == nil {
		return st.s.Exec(sql, row...)
	}
	tr, cl := st.tr, st.s.Client()
	a := tr.begin("engine.exec_insert", st.root)
	err := st.s.Exec(sql, row...)
	tr.end(a)
	if err != nil {
		return err
	}
	sh := shadow(value.Row(row).Clone())

	b := tr.begin("index.insert", a)
	err = st.maint.Insert(cl, table, sh)
	tr.end(b)
	if err != nil {
		return fmt.Errorf("ladder: Maintainer.Insert into %s: %w", table.Name, err)
	}
	del := tr.begin("index.delete", st.root)
	err = st.maint.Delete(cl, table, primaryKey(table, sh))
	tr.end(del)
	if err != nil {
		return fmt.Errorf("ladder: Maintainer.Delete from %s: %w", table.Name, err)
	}

	key, rec := index.RecordKey(table, sh), value.EncodeRow(sh)
	c := tr.begin("kvstore.write", b)
	ok, err := cl.TestAndSet(key, nil, rec)
	cl.Put(key, rec)
	tr.end(c)
	cl.Delete(key)
	if err != nil || !ok {
		return fmt.Errorf("ladder: TestAndSet on a fresh key of %s: ok=%v err=%v", table.Name, ok, err)
	}

	d := tr.begin("btree.write", c)
	st.tree.Put(key, rec)
	st.tree.Put(key, rec)
	tr.end(d)
	st.tree.Delete(key)
	return nil
}

// delete runs one DELETE; traced, it is a leaf span of the interaction.
func (st *site) delete(sql string, params ...value.Value) error {
	if st.tr == nil {
		return st.s.Exec(sql, params...)
	}
	a := st.tr.begin("engine.exec_delete", st.root)
	err := st.s.Exec(sql, params...)
	st.tr.end(a)
	return err
}

// col0 is the pk of statements whose first output column is the
// single-column primary key of their base table.
func col0(_ []value.Value, r value.Row) value.Row { return value.Row{r[0]} }

// fold mixes one parameter draw into a running 64-bit digest: cheap
// enough for the timed loop, and fed to the SHA-256 at the end.
func fold(h *uint64, x uint64) { *h = (*h ^ x) * 0x100000001B3 }
