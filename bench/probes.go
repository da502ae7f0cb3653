package main

import (
	"fmt"
	"runtime"
	"time"
	"unicode"

	"piql/internal/analyze"
	"piql/internal/btree"
	"piql/internal/codec"
	"piql/internal/core"
	"piql/internal/exec"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/parser"
	"piql/internal/schema"
	"piql/internal/sim"
	"piql/internal/value"
)

// The probes time each layer's public functions directly, on the
// workload's own texts, keys and records. Unlike the ladder they do not
// follow an interaction; they give every workload's traced run the same
// per-call numbers, so a layer's cost can be compared across workloads.

// probeInputs is what a workload hands the probes.
type probeInputs struct {
	// insertSQL inserts freshRow(i) into table; deleteSQL with
	// freshPK(i) removes it again. Rows are new to the store for every i.
	insertSQL, deleteSQL string
	table                *schema.Table
	freshRow             func(i int) value.Row
	// scanLead(i) is a leading primary-key value of table with about ten
	// records under it.
	scanLead func(i int) value.Row
}

func (pi probeInputs) freshPK(i int) value.Row { return primaryKey(pi.table, pi.freshRow(i)) }

type prober struct {
	k   *refKernel
	out map[string]metric
}

// time runs fn n times between two calibrations and returns normalised
// µs and heap allocations per call.
func (p *prober) time(n int, fn func(i int)) (us, allocs float64) {
	var m0, m1 runtime.MemStats
	c0 := p.k.calibrate()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := float64(time.Since(t0))
	runtime.ReadMemStats(&m1)
	f := hostScale([]calib{c0, p.k.calibrate()}, 0)
	return d * f / 1e3 / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func (p *prober) us(name string, n int, fn func(i int)) {
	us, _ := p.time(n, fn)
	p.out[name] = metric{us, "us"}
}

// variant returns the i-th respelling of a SELECT text: the case of its
// first ten letters follows the bits of i. Same length, same plan, and a
// text the plan cache has not seen.
func variant(sql string, i int) string {
	b := []rune(sql)
	bit := 0
	for j := range b {
		if bit == 10 {
			break
		}
		if unicode.IsLetter(b[j]) {
			if i>>bit&1 == 1 {
				b[j] = unicode.ToLower(b[j])
			} else {
				b[j] = unicode.ToUpper(b[j])
			}
			bit++
		}
	}
	return string(b)
}

// runProbes measures every layer below the engine on st, then the
// engine's own entry points. It changes the store only by rows it
// removes again, except for the plan-cache probe's extra plans.
func runProbes(p *prober, st *site, pi probeInputs) error {
	cl, cat := st.s.Client(), st.eng.Catalog()
	selects := make([]string, len(st.stmts))
	asts := make([]*parser.Select, len(st.stmts))
	for i, q := range st.stmts {
		selects[i] = q.sql
		stmt, err := parser.Parse(q.sql)
		if err != nil {
			return err
		}
		asts[i] = stmt.(*parser.Select)
	}

	// parser
	us, allocs := p.time(4000, func(i int) { _, _ = parser.Parse(selects[i%len(selects)]) })
	p.out["parser.parse_select_us"], p.out["parser.allocs_per_parse"] = metric{us, "us"}, metric{allocs, "count"}
	dml := []string{pi.insertSQL, pi.deleteSQL}
	p.us("parser.parse_dml_us", 4000, func(i int) { _, _ = parser.Parse(dml[i%2]) })

	// core
	p.us("core.catalog_clone_us", 4000, func(int) { cat.Clone() })
	clone := cat.Clone() // every index the plans need is registered, so compiling leaves it as it is
	us, allocs = p.time(2000, func(i int) { _, _ = core.Compile(clone, asts[i%len(asts)]) })
	p.out["core.compile_us"], p.out["core.allocs_per_compile"] = metric{us, "us"}, metric{allocs, "count"}

	// analyze
	policy := &analyze.Policy{Enforce: true, MaxOps: 1 << 30}
	p.us("analyze.plan_us", 4000, func(i int) { analyze.Plan(st.stmts[i%len(st.stmts)].prep.Plan()) })
	p.us("analyze.admit_us", 20000, func(i int) {
		q := st.stmts[i%len(st.stmts)]
		_ = policy.Admit(q.sql, q.prep.Bound())
	})

	// codec and value, on the records of the probe table
	prefix := index.RecordPrefix(pi.table)
	sample := cl.GetRange(kvstore.RangeRequest{Start: prefix, End: codec.PrefixEnd(prefix), Limit: 2000})
	if len(sample) < 20 {
		return fmt.Errorf("probes: table %s has only %d records", pi.table.Name, len(sample))
	}
	nkey, ncol := 1+len(pi.table.PrimaryKey), len(pi.table.Columns)
	keyVals := make([]value.Row, len(sample))
	rows := make([]value.Row, len(sample))
	for i, kv := range sample {
		var err error
		if keyVals[i], err = codec.DecodeKey(kv.Key, nkey, nil); err != nil {
			return err
		}
		if rows[i], err = value.DecodeRow(kv.Value); err != nil {
			return err
		}
	}
	p.us("codec.encode_key_us", 20000, func(i int) { codec.EncodeKey(keyVals[i%len(keyVals)], nil) })
	p.us("codec.decode_key_us", 20000, func(i int) { _, _ = codec.DecodeKey(sample[i%len(sample)].Key, nkey, nil) })
	p.us("value.encode_row_us", 20000, func(i int) { value.EncodeRow(rows[i%len(rows)]) })
	dst := make(value.Row, ncol)
	us, allocs = p.time(20000, func(i int) { _, _ = value.DecodeRowInto(dst, sample[i%len(sample)].Value) })
	p.out["value.decode_row_into_us"], p.out["value.allocs_per_decode"] = metric{us, "us"}, metric{allocs, "count"}

	// btree, on the ladder's tree
	leads := make([][]byte, 200)
	for i := range leads {
		leads[i] = index.RecordKeyFromPK(pi.table, pi.scanLead(i))
	}
	ten := func(n *int) func(btree.Item) bool { return func(btree.Item) bool { *n++; return *n < 10 } }
	p.us("btree.get_us", 20000, func(i int) { st.tree.Get(sample[i%len(sample)].Key) })
	p.us("btree.ascend10_us", 10000, func(i int) {
		n, lo := 0, leads[i%len(leads)]
		st.tree.Ascend(lo, codec.PrefixEnd(lo), ten(&n))
	})
	p.us("btree.descend10_us", 10000, func(i int) {
		n, lo := 0, leads[i%len(leads)]
		st.tree.Descend(lo, codec.PrefixEnd(lo), ten(&n))
	})
	freshKeys := make([][]byte, 5000)
	for i := range freshKeys {
		freshKeys[i] = index.RecordKey(pi.table, pi.freshRow(i))
	}
	rec0 := value.EncodeRow(pi.freshRow(0))
	p.us("btree.put_us", len(freshKeys), func(i int) { st.tree.Put(freshKeys[i], rec0) })
	for _, k := range freshKeys {
		st.tree.Delete(k)
	}

	// kvstore reads
	keys := make([][]byte, len(sample))
	for i, kv := range sample {
		keys[i] = kv.Key
	}
	p.us("kvstore.get_us", 20000, func(i int) { cl.Get(keys[i%len(keys)]) })
	p.us("kvstore.multiget10_us", 4000, func(i int) { j := i * 10 % (len(keys) - 10); cl.MultiGet(keys[j : j+10]) })
	rangeOf := func(i int) kvstore.RangeRequest {
		lo := leads[i%len(leads)]
		return kvstore.RangeRequest{Start: lo, End: codec.PrefixEnd(lo), Limit: 10}
	}
	p.us("kvstore.getrange10_us", 4000, func(i int) { cl.GetRange(rangeOf(i)) })
	p.us("kvstore.getrange_scatter10_us", 4000, func(i int) { cl.GetRangeScatter(rangeOf(i)) })
	p.us("kvstore.count_range_us", 4000, func(i int) { r := rangeOf(i); cl.CountRange(r.Start, r.End) })

	// kvstore writes, on keys new to the store, removed afterwards
	p.us("kvstore.put_us", len(freshKeys), func(i int) { cl.Put(freshKeys[i], rec0) })
	for _, k := range freshKeys {
		cl.Delete(k)
	}
	var tasErr error
	p.us("kvstore.test_and_set_us", len(freshKeys), func(i int) {
		// A deleted key holds a tombstone, which reads as absent.
		if ok, err := cl.TestAndSet(freshKeys[i], nil, rec0); err != nil || !ok {
			tasErr = fmt.Errorf("probes: TestAndSet on a fresh key: ok=%v err=%v", ok, err)
		}
	})
	for _, k := range freshKeys {
		cl.Delete(k)
	}
	if tasErr != nil {
		return tasErr
	}
	p.out["kvstore.fence_retries"] = metric{float64(cl.FenceRetries()), "count"}
	p.out["kvstore.fence_rejects"] = metric{float64(st.cluster.FenceRejects()), "count"}
	branches := make([]func(*kvstore.Client), 10)
	for i := range branches {
		branches[i] = func(*kvstore.Client) {}
	}
	us, allocs = p.time(2000, func(int) { cl.Parallel(branches...) })
	p.out["kvstore.parallel_branch_us"] = metric{us / 10, "us"}
	p.out["kvstore.parallel_allocs_per_branch"] = metric{allocs / 10, "count"}

	// index maintenance, then the engine's DML entry points, on fresh rows
	const writes = 2000
	var werr error
	note := func(err error) {
		if err != nil && werr == nil {
			werr = err
		}
	}
	ops0 := cl.Ops()
	p.us("index.insert_us", writes, func(i int) { note(st.maint.Insert(cl, pi.table, pi.freshRow(i))) })
	p.out["index.kv_ops_per_insert"] = metric{float64(cl.Ops()-ops0) / writes, "count"}
	p.us("index.delete_us", writes, func(i int) { note(st.maint.Delete(cl, pi.table, pi.freshPK(i))) })
	p.us("engine.exec_insert_us", writes, func(i int) { note(st.s.Exec(pi.insertSQL, pi.freshRow(i)...)) })
	p.us("engine.exec_delete_us", writes, func(i int) { note(st.s.Exec(pi.deleteSQL, pi.freshPK(i)...)) })
	if werr != nil {
		return fmt.Errorf("probes: write to %s: %w", pi.table.Name, werr)
	}

	// exec.Run's allocations, per plan shape the workload has
	for _, shape := range []string{"pk_lookup", "sorted_join"} {
		allocs = 0 // stays 0 when no statement of the workload has this shape
		for _, q := range st.stmts {
			if q.shape == shape && len(q.lastParams) == q.prep.Plan().NumParams {
				_, allocs = p.time(500, func(int) {
					_, _ = exec.Run(q.prep.Plan(), &exec.Ctx{Client: cl, Params: q.lastParams, Strategy: exec.Parallel})
				})
				break
			}
		}
		p.out["exec.allocs_per_run."+shape] = metric{allocs, "count"}
	}

	// engine.Prepare: cached, then first-seen texts, and what a cached
	// plan keeps alive.
	p.us("engine.prepare_hit_us", 20000, func(i int) { _, _ = st.s.Prepare(selects[i%len(selects)]) })
	const variants = 1000 // of each statement; variant 0 may be the cached spelling
	heap0 := heapLiveMB()
	var perr error
	us, _ = p.time(variants*len(selects), func(i int) {
		if _, err := st.s.Prepare(variant(selects[i%len(selects)], 1+i/len(selects))); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return fmt.Errorf("probes: prepare of a respelled statement: %w", perr)
	}
	p.out["engine.prepare_miss_us"] = metric{us, "us"}
	p.out["engine.plan_cache_bytes_per_plan"] = metric{(heapLiveMB() - heap0) * (1 << 20) / float64(variants*len(selects)), "bytes"}
	runtime.KeepAlive(st) // or the second reading would find the store collected

	simProbes(p, keys, rec0)
	return nil
}

// simProbes measures the sim scheduler on the wall clock and the
// simulated store's operations on the virtual one, over the given keys.
func simProbes(p *prober, keys [][]byte, rec []byte) {
	const procs, sleeps = 10, 2000
	env := sim.NewEnv()
	for i := 0; i < procs; i++ {
		env.Spawn(func(pr *sim.Proc) {
			for j := 0; j < sleeps; j++ {
				pr.Sleep(time.Microsecond)
			}
		})
	}
	us, _ := p.time(1, func(int) { env.Run(0) })
	env.Stop()
	p.out["sim.events_per_s"] = metric{procs * sleeps / (us / 1e6), "1/s"}

	env = sim.NewEnv()
	const fanouts = 500
	empty := make([]func(*sim.Proc), 10)
	for i := range empty {
		empty[i] = func(*sim.Proc) {}
	}
	env.Spawn(func(pr *sim.Proc) {
		for j := 0; j < fanouts; j++ {
			pr.Parallel(empty...)
		}
	})
	us, _ = p.time(1, func(int) { env.Run(0) })
	env.Stop()
	p.out["sim.parallel_fanout_us"] = metric{us / fanouts, "us"}

	env = sim.NewEnv()
	cluster := kvstore.New(kvstore.Config{Nodes: simNodes, ReplicationFactor: 2, Seed: simClusterSeed}, env)
	load := cluster.NewClient(nil)
	for _, k := range keys {
		load.Put(k, rec)
	}
	cluster.Rebalance()
	var get, multi, ranged []float64
	env.Spawn(func(pr *sim.Proc) {
		cl := cluster.NewClient(pr)
		virtual := func(dst *[]float64, op func()) {
			t0 := cl.Now()
			op()
			*dst = append(*dst, float64(cl.Now()-t0)/1e3)
		}
		for i := 0; i < 2000; i++ {
			virtual(&get, func() { cl.Get(keys[i%len(keys)]) })
		}
		for i := 0; i < 500; i++ {
			j := i * 10 % (len(keys) - 10)
			virtual(&multi, func() { cl.MultiGet(keys[j : j+10]) })
			virtual(&ranged, func() { cl.GetRange(kvstore.RangeRequest{Start: keys[j], Limit: 10}) })
		}
	})
	env.Run(0)
	env.Stop()
	p.out["kvstore.sim_get_p50_us"] = metric{percentile(get, 50), "us"}
	p.out["kvstore.sim_get_p99_us"] = metric{percentile(get, 99), "us"}
	p.out["kvstore.sim_multiget10_p99_us"] = metric{percentile(multi, 99), "us"}
	p.out["kvstore.sim_range10_p99_us"] = metric{percentile(ranged, 99), "us"}
}
