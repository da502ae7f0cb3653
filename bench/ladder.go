package main

import (
	"strings"
	"time"

	"piql/internal/analyze"
	"piql/internal/btree"
	"piql/internal/codec"
	"piql/internal/core"
	"piql/internal/engine"
	"piql/internal/exec"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/parser"
)

// The traced run. The layers nest and cannot be interposed from outside
// the program, so the trace is a ladder: a sampled statement goes
// through the engine and is then replayed with the same parameters one
// layer lower each time (site.query, site.insert, site.coldPrepare).
// A rung's self time is its span minus the rung below it.

const (
	tracedBlocks   = 40 // alternately untraced and traced
	tracedPerBlock = 100
)

// enableLadder gives the site what the lower rungs need: a Maintainer
// of its own and a btree.Tree holding the same records as the store
// (every table's records; no index entries).
func (st *site) enableLadder() {
	st.maint = index.NewMaintainer(st.eng)
	st.tree = btree.New()
	cl := st.cluster.NewClient(nil)
	for _, t := range st.eng.Catalog().Tables() {
		prefix := index.RecordPrefix(t)
		for _, kv := range cl.GetRange(kvstore.RangeRequest{Start: prefix, End: codec.PrefixEnd(prefix)}) {
			st.tree.Put(kv.Key, kv.Value)
		}
	}
}

// tracedPhase runs blocks of interactions alternately with tracing off
// and on, with a calibration after each block, so the two kinds of block
// see the same host.
type tracedPhase struct {
	tr      *tracer
	calibs  []calib
	blocks  []tracedBlock
	failed  int
	traced  int // interactions run with tracing on
	ladders ladderCounts
}

type tracedBlock struct {
	traced bool
	n      int
	wallNs float64
	calib  int
}

// run drives the blocks against st.
func (tp *tracedPhase) run(k *refKernel, st *site, interact func() bool) {
	tp.tr = newTracer()
	tp.calibs = append(tp.calibs, k.calibrate())
	for b := 0; b < tracedBlocks; b++ {
		traced := b%2 == 1
		st.tr = nil
		if traced {
			st.tr = tp.tr
		}
		t0 := time.Now()
		for i := 0; i < tracedPerBlock; i++ {
			if traced {
				tp.tr.interaction++
				st.root = tp.tr.begin("workload.interaction", -1)
			}
			ok := interact()
			if traced {
				tp.tr.end(st.root)
			}
			if !ok {
				tp.failed++
			}
		}
		wall := float64(time.Since(t0))
		tp.blocks = append(tp.blocks, tracedBlock{traced: traced, n: tracedPerBlock, wallNs: wall, calib: len(tp.calibs) - 1})
		tp.calibs = append(tp.calibs, k.calibrate())
		if traced {
			tp.traced += tracedPerBlock
			tp.tr.window++
		}
	}
	st.tr = nil
	for _, b := range tp.blocks {
		if b.traced {
			f := hostScale(tp.calibs, b.calib)
			tp.tr.scales = append(tp.tr.scales, f)
		}
	}
	tp.ladders = st.ladder
}

// isReplay reports whether a span is a lower rung of a ladder rather
// than part of what the interaction would have done untraced.
func isReplay(name string) bool {
	return !strings.HasPrefix(name, "engine.") && !strings.HasPrefix(name, "workload.")
}

// metrics turns the phase's spans and counts into layer metrics.
func (tp *tracedPhase) metrics(out map[string]metric) {
	by := tp.tr.byName()
	n := float64(tp.traced)
	perCall := func(name string) float64 {
		if lt := by[name]; lt != nil {
			return lt.totalUs / float64(lt.calls)
		}
		return 0 // the workload has no statement of this shape
	}
	var execSelf, replayUs float64
	for name, lt := range by {
		if strings.HasPrefix(name, "exec.run.") {
			execSelf += lt.selfUs
		}
		if isReplay(name) {
			replayUs += lt.totalUs
		}
	}
	for _, shape := range []string{"pk_lookup", "index_scan", "fk_join", "sorted_join"} {
		out["exec.run_us."+shape] = metric{perCall("exec.run." + shape), "us"}
	}
	if lt := by["engine.execute"]; lt != nil {
		out["engine.execute_self_us"] = metric{lt.selfUs / float64(lt.calls), "us"}
	}
	out["exec.self_us_per_interaction"] = metric{execSelf / n, "us"}
	out["exec.rows_per_interaction"] = metric{float64(tp.ladders.rows) / n, "count"}
	out["analyze.bound_ops_per_interaction"] = metric{float64(tp.ladders.boundOps) / n, "count"}
	out["analyze.bound_use"] = metric{tp.ladders.worstUse, "ratio"}
	out["analyze.over_bound_share"] = metric{float64(tp.ladders.overBound) / float64(tp.ladders.statements), "ratio"}

	// Tracing overhead: a traced interaction without its replays, against
	// an untraced one run in the neighbouring block.
	var untracedUs, untracedN float64
	for _, b := range tp.blocks {
		if !b.traced {
			f := hostScale(tp.calibs, b.calib)
			untracedUs += b.wallNs * f / 1e3
			untracedN += float64(b.n)
		}
	}
	untraced := untracedUs / untracedN
	tracedTop := (by["workload.interaction"].totalUs - replayUs) / n
	out["harness.trace_overhead_share"] = metric{(tracedTop - untraced) / untraced, "ratio"}
}

// coldPrepare is prepare_cold's ladder: Session.Prepare of a first-seen
// text, then the stages it is made of, called directly on the same
// text: parser.Parse, Catalog.Clone, core.Compile, analyze.Plan and
// Policy.Admit. What is left of the Prepare span is the engine's own
// share: the plan cache, its locks and the index check.
func (st *site) coldPrepare(sql string) (*engine.Prepared, error) {
	if st.tr == nil {
		return st.s.Prepare(sql)
	}
	tr := st.tr
	a := tr.begin("engine.prepare_miss", st.root)
	p, err := st.s.Prepare(sql)
	tr.end(a)

	b := tr.begin("parser.parse_select", a)
	stmt, perr := parser.Parse(sql)
	tr.end(b)
	if perr != nil {
		return p, err
	}
	c := tr.begin("core.catalog_clone", a)
	cat := st.eng.Catalog().Clone()
	tr.end(c)
	d := tr.begin("core.compile", a)
	plan, cerr := core.Compile(cat, stmt.(*parser.Select))
	tr.end(d)
	if cerr != nil {
		return p, err
	}
	e := tr.begin("analyze.plan", a)
	bound := analyze.Plan(plan)
	tr.end(e)
	f := tr.begin("analyze.admit", a)
	_ = st.eng.Admission().Admit(sql, bound)
	tr.end(f)
	return p, err
}

// coldExecute runs an admitted cold statement; traced, two rungs of it.
func (st *site) coldExecute(p *engine.Prepared) (*exec.Result, error) {
	if st.tr == nil {
		return p.Execute(st.s)
	}
	res, _, err := st.executeTraced(p, planShape(p.Plan()), nil)
	return res, err
}
