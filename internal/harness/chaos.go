package harness

import (
	"cmp"
	"fmt"
	"io"
	"time"

	"piql/internal/codec"
	"piql/internal/engine"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/sim"
	"piql/internal/value"
)

// ChaosConfig drives the online-operations chaos workload: simulated
// writer processes hammer the write path of one engine while a secondary
// index is built and the cluster rebalances, repeatedly, under it all.
// It is the end-to-end proof that the two formerly quiescent operations
// — backfill and rebalance — are safe under live traffic. The storm runs
// on a sim.Env, so a run is a function of its config: one seed replays
// one interleaving, faults included.
type ChaosConfig struct {
	// Nodes is the cluster size.
	Nodes int
	// Writers is the number of concurrent writer processes.
	Writers int
	// OpsPerWriter is each writer's operation count (inserts, updates,
	// deletes, and read-back checks).
	OpsPerWriter int
	// Rebalances is how many times the cluster rebalances during the run.
	Rebalances int
	// CASWriters is the number of conditional-writer processes racing
	// TestAndSet on CASKeys shared keys. Every accepted swap is recorded
	// and replayed against a serial model after the run: with unique
	// update values, a linearizable register admits exactly one accepted
	// swap per state, so a double-accept across a rebalance flip (the
	// pre-fencing anomaly) or a lost accepted swap fails the audit.
	CASWriters int
	// CASKeys is how many shared keys the conditional writers contend on.
	CASKeys int
	// CASOpsPerWriter is each conditional writer's attempt count.
	CASOpsPerWriter int
	// Seed drives the cluster's randomness, and so the whole storm.
	Seed int64
	// Faults, when non-nil, injects failures into the storm: node
	// crashes, partitions, and the falsification knobs that prove the
	// recovery machinery is load-bearing.
	Faults *FaultSchedule
}

// FaultSchedule switches on fault injection during the chaos storm.
// The victim node is fixed (see RunChaos — a node owning the
// record-carrying head partitions), so the schedule is deterministic
// given the config.
type FaultSchedule struct {
	// KillRestart crashes the victim inside a mid-storm rebalance and
	// restarts it two rebalances later — the catch-up replay and lease
	// re-grant path. Writes acked during the outage must survive it.
	KillRestart bool
	// Partition cuts the victim away from the client side mid-storm and
	// heals it two rebalances later, with the storm paced so the
	// victim's leases expire and a rebalance reclaims its ranges while
	// it is unreachable.
	Partition bool
	// LeaseMs overrides the cluster's lease duration in milliseconds of
	// virtual time (default 40). Short leases let reclaim happen inside
	// the run; a long lease (e.g. 60000) pins ownership across the
	// outage so recovery rides on catch-up replay alone.
	LeaseMs int
	// DisableFailover is a falsification knob: reads no longer reroute
	// around an unreachable replica. A faulted run with it set must
	// fail — proving the survival tests actually depend on failover.
	DisableFailover bool
	// DisableCatchUpReplay is a falsification knob: writes queued for
	// an unreachable node are never replayed at rejoin, so a recovered
	// node serves stale state. A faulted run with it set must fail —
	// proving the tests actually depend on replay.
	DisableCatchUpReplay bool
}

func (f *FaultSchedule) lease() time.Duration {
	if f.LeaseMs > 0 {
		return time.Duration(f.LeaseMs) * time.Millisecond
	}
	return 40 * time.Millisecond
}

// The storm's constants, all on the virtual clock but the chunk size.
const (
	// chaosMoveChunkKeys keeps each rebalance copy's chunks small, so
	// every rebalance crosses many chunk windows.
	chaosMoveChunkKeys = 32
	// chaosOpDeadline bounds a writer operation's retry-on-transient
	// loop. An op still failing past it fails the run: that is a wedge,
	// not a transient.
	chaosOpDeadline = 10 * time.Second
	// chaosRetryPause paces retries, so a retrying process does not burn
	// its attempts inside one fault window.
	chaosRetryPause = time.Millisecond
	// chaosWindow is how long the fleet writes before a fault is
	// injected, and again before the recovery: acked writes, failover
	// reads and conditional decisions all land inside the outage.
	chaosWindow = 300 * time.Millisecond
	// chaosTimeLimit is the virtual time a storm must finish by, about
	// twenty times what one takes. One that has not is wedged, and
	// RunChaos says where.
	chaosTimeLimit = time.Minute
)

// DefaultChaosConfig simulates a few seconds of virtual time, about
// half a second of wall time.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Nodes: 6, Writers: 8, OpsPerWriter: 300, Rebalances: 8,
		CASWriters: 6, CASKeys: 4, CASOpsPerWriter: 400,
		Seed: 1,
	}
}

// ChaosResult summarizes a chaos run. Any integrity violation is
// reported through the error return of RunChaos instead; the counters
// here prove the run actually exercised the online paths.
type ChaosResult struct {
	Inserted     int64 // rows successfully inserted
	Deleted      int64 // rows deleted again
	Reads        int64 // point queries issued by writers mid-run
	Rebalances   int   // rebalances completed during traffic
	Records      int   // rows surviving at the end
	Entries      int   // index entries at the end (== Records when clean)
	Epoch        int64 // final routing epoch
	CASAccepted  int64 // conditional swaps accepted (all model-checked)
	FenceRejects int64 // conditional decisions retried after epoch fencing
	TombsSwept   int64 // delete tombstones collected by the post-run GC

	// Fault-injection evidence (zero without a FaultSchedule): the
	// survival tests require these to prove the faults actually fired.
	Kills            int64 // node crashes injected
	Partitions       int64 // partitions injected
	CatchUpsQueued   int64 // writes queued for unreachable nodes
	CatchUpsReplayed int64 // queued writes replayed at rejoin
	RetriedOps       int64 // writer ops that needed at least one transient retry
}

// RunChaos builds a table, spawns the writer fleet, and — while the
// fleet runs — creates a secondary index (online backfill) and
// rebalances the cluster repeatedly, all as processes of one sim.Env.
// Every writer checks read-your-writes after each operation through a
// bounded point query. After the fleet drains, RunChaos audits the
// store: each surviving row must have exactly its index entries (none
// missing, none dangling) and be readable through the ready index. A
// storm still running at chaosTimeLimit of virtual time is wedged: it
// fails, naming the schedule's last step.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) { return runChaos(cfg, chaosTimeLimit) }

// runChaos is RunChaos with the storm cut off at limit of virtual time.
func runChaos(cfg ChaosConfig, limit time.Duration) (*ChaosResult, error) {
	if cfg.CASWriters > 0 && cfg.CASKeys <= 0 {
		cfg.CASKeys = 1 // the audit loop must cover every key the fleet touches
	}
	f := cfg.Faults
	kcfg := kvstore.Config{
		Nodes:             cfg.Nodes,
		ReplicationFactor: 2,
		Seed:              cfg.Seed,
		MoveChunkKeys:     chaosMoveChunkKeys,
	}
	if f != nil {
		kcfg.LeaseDuration = f.lease()
	}
	r, err := newRig(kcfg, sim.NewEnv(), []string{`CREATE TABLE chaos_rows (
		id VARCHAR(40), grp VARCHAR(20), body VARCHAR(60),
		PRIMARY KEY (id))`})
	if err != nil {
		return nil, err
	}
	env, cluster, eng := r.env, r.cluster, r.eng
	if f != nil {
		cluster.SetFailover(!f.DisableFailover)
		cluster.SetCatchUpReplay(!f.DisableCatchUpReplay)
	}
	for i := 0; i < 200; i++ {
		if err := r.loader.Exec(`INSERT INTO chaos_rows VALUES (?, ?, 'seed row')`,
			value.Str(fmt.Sprintf("seed-%04d", i)), value.Str(grpName(i))); err != nil {
			return nil, err
		}
	}
	cluster.Rebalance() // spread the seed data before the storm

	// The processes run one at a time, so they share this state
	// without locks. failed keeps the first error any of them hit.
	res := &ChaosResult{}
	var failed error
	fail := func(err error) { failed = cmp.Or(failed, err) }
	// Under a fault schedule, transient errors — a dead primary inside
	// its lease window, a fence retry budget exhausted against it — are
	// legal write outcomes; the writers retry them until chaosOpDeadline.
	// An op still transient past the deadline fails the run: that is a
	// wedge (or a lost acked write), not a blip. Reads are never retried
	// — failover is supposed to make them succeed on the first try, and
	// retrying would mask its absence.
	retry := func(p *sim.Proc, op func() error) error {
		deadline := p.Now() + chaosOpDeadline
		err := op()
		if engine.Retryable(err) {
			res.RetriedOps++
		}
		for engine.Retryable(err) && p.Now() <= deadline {
			p.Sleep(chaosRetryPause)
			err = op()
		}
		return err
	}
	// stormDone releases the writer fleet: each writer runs at least its
	// OpsPerWriter and then keeps going until the storm (index build,
	// rebalances, fault schedule) has finished, so faults always land on
	// live traffic no matter how long the backfill took.
	stormDone := false
	running := cfg.Writers + cfg.CASWriters
	for g := 0; g < cfg.Writers; g++ {
		env.Spawn(func(p *sim.Proc) {
			defer func() { running-- }()
			s := eng.Session(p)
			failf := func(format string, args ...any) {
				fail(fmt.Errorf("writer %d: "+format, append([]any{g}, args...)...))
			}
			alive := make(map[int]bool) // writer-local row ids believed live
			for i := 0; i < cfg.OpsPerWriter || !stormDone; i++ {
				id := fmt.Sprintf("w%02d-%05d", g, i%119)
				switch i % 5 {
				case 0, 1, 2: // insert a fresh row (or collide with a live one)
					err := retry(p, func() error {
						return s.Exec(`INSERT INTO chaos_rows VALUES (?, ?, ?)`,
							value.Str(id), value.Str(grpName(g)), value.Str(fmt.Sprintf("body-%d", i)))
					})
					if err == nil {
						if alive[i%119] {
							failf("insert of live row %s succeeded", id)
							return
						}
						alive[i%119] = true
						res.Inserted++
					} else if alive[i%119] {
						// duplicate collision with our own live row: expected
					} else {
						failf("insert %s: %v", id, err)
						return
					}
				case 3: // update a live row
					if alive[i%119] {
						if err := retry(p, func() error {
							return s.Exec(`UPDATE chaos_rows SET body = ? WHERE id = ?`,
								value.Str(fmt.Sprintf("upd-%d", i)), value.Str(id))
						}); err != nil {
							failf("update %s: %v", id, err)
							return
						}
					}
				case 4: // delete a live row
					if alive[i%119] {
						if err := retry(p, func() error {
							return s.Exec(`DELETE FROM chaos_rows WHERE id = ?`, value.Str(id))
						}); err != nil {
							failf("delete %s: %v", id, err)
							return
						}
						delete(alive, i%119)
						res.Deleted++
					}
				}
				// Read-your-writes through the query path: a point query on
				// the primary key must see exactly what this writer believes.
				q, err := s.Query(`SELECT id FROM chaos_rows WHERE id = ? LIMIT 1`, value.Str(id))
				if err != nil {
					failf("point query %s: %v", id, err)
					return
				}
				res.Reads++
				if got, want := len(q.Rows), alive[i%119]; (got == 1) != want {
					failf("point query %s returned %d rows, want live=%v (op %d)", id, got, want, i)
					return
				}
				// Coverage read: one immutable seed row per iteration. The
				// writers' own keys cluster at the tail of the keyspace, so
				// read-your-writes alone can miss a dead node entirely; the
				// seed rows span every partition, making a read land on any
				// victim-owned range within a few iterations — the traffic
				// that proves failover (and fails the run without it).
				sid := fmt.Sprintf("seed-%04d", (g*53+i)%200)
				q, err = s.Query(`SELECT id FROM chaos_rows WHERE id = ? LIMIT 1`, value.Str(sid))
				if err != nil {
					failf("seed read %s: %v", sid, err)
					return
				}
				res.Reads++
				if len(q.Rows) != 1 {
					failf("seed row %s unreadable: got %d rows", sid, len(q.Rows))
					return
				}
			}
		})
	}

	// The conditional-writer fleet: raw TestAndSet races on shared store
	// keys, each writer expecting the value it just read and installing a
	// globally unique one. Accepted swaps are recorded for the serial
	// model audit after the run.
	type casSwap struct{ key, expect, update string }
	var casAccepted []casSwap
	casKey := func(i int) []byte { return []byte(fmt.Sprintf("chaos-cas-%02d", i%cfg.CASKeys)) }
	for g := 0; g < cfg.CASWriters; g++ {
		env.Spawn(func(p *sim.Proc) {
			defer func() { running-- }()
			cl := cluster.NewClient(p)
			for i := 0; i < cfg.CASOpsPerWriter; i++ {
				k := casKey(g + i)
				cur, _, _, err := cl.Read(k, kvstore.ReadOpts{}) // nil = absent
				up := []byte(fmt.Sprintf("cas-w%02d-%06d", g, i))
				var swapped bool
				if err == nil {
					swapped, err = cl.TestAndSet(k, cur, up)
				}
				if err != nil {
					// Transient (key unreadable, or primary dead past the
					// retry budget): no decision was made, so this attempt
					// simply retries after a pause.
					p.Sleep(chaosRetryPause)
					continue
				}
				if swapped {
					casAccepted = append(casAccepted, casSwap{string(k), string(cur), string(up)})
				}
			}
		})
	}

	// The storm: build an index and rebalance, all while the fleet
	// writes — and, under a fault schedule, crash/partition the victim
	// node mid-storm. The kill lands inside a rebalance, so inside its
	// move windows; the partition window is paced past the lease
	// duration so a later rebalance reclaims the victim's ranges while
	// it is unreachable.
	//
	// The victim choice is load-bearing. Record keys sort before
	// index-entry keys, so the head partitions hold the table's records
	// and the tail partitions hold index entries; under the arithmetic
	// placement (partition p is owned by nodes p and p+1) each node is
	// primary of partition <id> and secondary of partition <id>-1.
	// Killing the tail node takes only index ranges offline — the
	// fleet's record reads never route to it and failover goes
	// unexercised. Killing a record partition's *primary* parks every
	// writer whose TestAndSet needs it (the 60s-lease kill schedule
	// pins ownership), choking the very traffic the outage should land
	// on. Node 3 is the sweet spot: secondary of the record-carrying
	// partition holding most writers' keys — so reads route to it half
	// the time (failover is demonstrably load-bearing) and acked writes
	// queue catch-ups on it (replay is demonstrably load-bearing) —
	// while its own primary ranges hold only index entries, whose plain
	// puts queue rather than park.
	victim := 3
	step := "create index" // the schedule's last step, for a wedged storm's error
	env.Spawn(func(p *sim.Proc) {
		defer func() { stormDone, step = true, "done" }()
		s := eng.Session(p)
		if err := s.Exec(`CREATE INDEX chaos_grp ON chaos_rows (grp, id)`); err != nil {
			fail(err)
			return
		}
		doRebalance := func() {
			res.Rebalances++
			step = fmt.Sprintf("rebalance %d", res.Rebalances)
			s.Client().Rebalance()
		}
		if f == nil {
			for res.Rebalances < cfg.Rebalances {
				doRebalance()
			}
			return
		}
		// Outage rows are written once while the victim is away and read
		// back by the storm, not retried: during the outage some reads
		// pick the victim and only failover serves them; after recovery
		// some read its copy, which only replay brought up to date.
		// Interleaved with the seed rows and every writer's ids, they
		// land in every record partition. An insert whose primary is the
		// dead victim decides nothing; it is retried after recovery
		// instead of read back.
		var outage, acked, late []string
		for i := 0; i < 200; i += 4 {
			outage = append(outage, fmt.Sprintf("seed-%04d-outage", i))
		}
		for i := 0; i < cfg.Writers*119; i += 4 {
			outage = append(outage, fmt.Sprintf("w%02d-%05d-outage", i/119, i%119))
		}
		insertOutage := func(id string) error {
			return s.Exec(`INSERT INTO chaos_rows VALUES (?, 'grp-outage', 'outage row')`, value.Str(id))
		}
		readOutage := func(when string) {
			step = "read outage rows " + when
			for _, id := range acked {
				if q, err := s.Query(`SELECT id FROM chaos_rows WHERE id = ? LIMIT 1`, value.Str(id)); err != nil || len(q.Rows) != 1 {
					fail(fmt.Errorf("chaos: outage row %s unread %s (read error: %v)", id, when, err))
					return
				}
			}
		}
		doRebalance()
		step = "traffic before the fault"
		p.Sleep(chaosWindow)
		if f.KillRestart {
			// The killer runs at the storm's first park inside the
			// rebalance — its writer drain or its first copied chunk —
			// while the move table (an odd epoch) is published.
			env.Spawn(func(*sim.Proc) {
				if e := cluster.Epoch(); e%2 == 0 {
					fail(fmt.Errorf("chaos: the kill missed the rebalance (epoch %d)", e))
				}
				cluster.Kill(victim)
				res.Kills++
			})
			doRebalance()
		}
		if f.Partition {
			keep := make([]int, 0, cfg.Nodes-1)
			for id := 0; id < cfg.Nodes; id++ {
				if id != victim {
					keep = append(keep, id)
				}
			}
			cluster.Partition(keep)
			res.Partitions++
		}
		step = "insert outage rows"
		for _, id := range outage {
			if err := insertOutage(id); err != nil {
				late = append(late, id) // a lasting error fails its retry below
			} else {
				acked = append(acked, id)
			}
		}
		readOutage("during the outage")
		if f.Partition {
			// Let the victim's leases lapse, then rebalance: the victim's
			// ranges are reclaimed while it is still partitioned away.
			step = "wait out the lease"
			p.Sleep(f.lease() + f.lease()/4)
			doRebalance()
		}
		// Mid-outage rebalance: moves must survive a dead owner.
		doRebalance()
		step = "outage traffic"
		p.Sleep(chaosWindow)
		if f.KillRestart {
			cluster.Restart(victim)
		}
		if f.Partition {
			cluster.Heal()
		}
		// Before a rebalance can re-copy a range onto a stale node.
		readOutage("after recovery")
		step = "retry late outage inserts"
		for _, id := range late {
			if err := retry(p, func() error { return insertOutage(id) }); err != nil {
				fail(fmt.Errorf("chaos: outage insert %s: %w", id, err))
				break
			}
		}
		for res.Rebalances < cfg.Rebalances {
			doRebalance()
		}
	})
	env.Run(limit)
	// Read the verdict before Stop: it unwinds the parked processes,
	// running their defers.
	now, finished, last, left := env.Now(), stormDone, step, running
	env.Stop()
	if failed != nil {
		return nil, failed
	}
	if !finished || left > 0 {
		return nil, fmt.Errorf("chaos: storm unfinished at virtual time %v (last step: %s; %d writers still running)",
			now, last, left)
	}

	// Every process has finished and every node is back up, so no audit
	// read meets a transient condition: an error is reported as what it
	// is — a range the audit could not read — never as the lost write or
	// missing index entry an unread range would otherwise pass for.
	auditCl := cluster.NewClient(nil)
	unreadable := func(key []byte, err error) error {
		return fmt.Errorf("chaos: audit could not read %q: %w", key, err)
	}
	auditScan := func(prefix []byte) ([]kvstore.KV, error) {
		kvs, err := auditCl.Scan(kvstore.RangeRequest{Start: prefix, End: codec.PrefixEnd(prefix)}, kvstore.ReadOpts{})
		if err != nil {
			return nil, unreadable(prefix, err)
		}
		return kvs, nil
	}
	// Serial model check of every conditional outcome: per key the
	// accepted swaps must chain — one accept per state, starting from
	// absent, ending at the stored value. A fork means two swaps were
	// accepted from the same state (a double-accept across an epoch
	// flip); a short or mis-terminated chain means an accepted swap was
	// lost.
	chains := make(map[string]map[string]casSwap)
	for _, sw := range casAccepted {
		m := chains[sw.key]
		if m == nil {
			m = make(map[string]casSwap)
			chains[sw.key] = m
		}
		if prev, dup := m[sw.expect]; dup {
			return nil, fmt.Errorf("chaos: double-accepted TestAndSet on %s: %q and %q both won from state %q",
				sw.key, prev.update, sw.update, sw.expect)
		}
		m[sw.expect] = sw
	}
	for i := 0; i < cfg.CASKeys; i++ {
		k := string(casKey(i))
		chain := chains[k]
		cur := ""
		steps := 0
		for {
			sw, ok := chain[cur]
			if !ok {
				break
			}
			cur = sw.update
			steps++
		}
		if steps != len(chain) {
			return nil, fmt.Errorf("chaos: %s has %d accepted swaps but the serial chain explains %d",
				k, len(chain), steps)
		}
		got, _, ok, err := auditCl.Read([]byte(k), kvstore.ReadOpts{})
		if err != nil {
			return nil, unreadable([]byte(k), err)
		}
		if cur == "" {
			if ok {
				return nil, fmt.Errorf("chaos: %s should be absent, holds %q", k, got)
			}
		} else if !ok || string(got) != cur {
			return nil, fmt.Errorf("chaos: lost accepted swap on %s: chain ends at %q, store holds %q (present=%v)",
				k, cur, got, ok)
		}
	}
	res.CASAccepted = int64(len(casAccepted))
	res.FenceRejects = cluster.FenceRejects()

	// Convergence audit: with the fleet drained, every replica of every
	// key must hold the identical versioned value — the invariant the
	// hybrid-timestamp write path guarantees (racing Put/Delete from
	// different clients used to diverge replicas permanently). Audited
	// once as-is, then again after force-sweeping every delete tombstone
	// (safe: the cluster is quiesced), proving GC does not disturb the
	// converged state.
	if err := cluster.AuditConvergence(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	res.TombsSwept = int64(cluster.GCTombstones())
	if err := cluster.AuditConvergence(); err != nil {
		return nil, fmt.Errorf("chaos: post-GC: %w", err)
	}

	// Audit: the index is ready and mirrors the records exactly.
	cat := eng.Catalog()
	tbl := cat.Table("chaos_rows")
	var ix *schema.Index
	for _, cand := range cat.Indexes("chaos_rows") {
		if !cand.Primary {
			ix = cand
		}
	}
	if ix == nil {
		return nil, fmt.Errorf("chaos: secondary index missing from catalog")
	}
	if st := cat.IndexState(ix); st != schema.StateReady {
		return nil, fmt.Errorf("chaos: index state %v after build, want ready", st)
	}
	records, err := auditScan(index.RecordPrefix(tbl))
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool)
	for _, kv := range records {
		row, err := value.DecodeRow(kv.Value)
		if err != nil {
			return nil, fmt.Errorf("chaos: corrupt record: %w", err)
		}
		res.Records++
		for _, ekey := range index.EntryKeys(ix, tbl, row) {
			want[string(ekey)] = true
		}
	}
	// Deletes racing the backfill are swept by the build-tombstone pass
	// inside CREATE INDEX, so they no longer dangle. What GC may still
	// collect is the documented insert-rollback sliver (a duplicate
	// insert's rollback racing the winner's entry writes) — Section
	// 7.2's GC-able fallout class. Collect that, then require the index
	// to mirror the records exactly. A *missing* entry is never
	// tolerable: that is the write gap the online-build protocol closes.
	if _, err := index.NewMaintainer(eng).GCDangling(auditCl, ix); err != nil {
		return nil, fmt.Errorf("chaos: gc: %w", err)
	}
	entries, err := auditScan(index.IndexPrefix(ix))
	if err != nil {
		return nil, err
	}
	for _, kv := range entries {
		res.Entries++
		if !want[string(kv.Key)] {
			return nil, fmt.Errorf("chaos: dangling index entry %q survived GC", kv.Key)
		}
		delete(want, string(kv.Key))
	}
	for k := range want {
		return nil, fmt.Errorf("chaos: record missing its index entry %q", []byte(k))
	}

	res.Epoch = cluster.Epoch()
	res.CatchUpsQueued = cluster.CatchUpsQueued()
	res.CatchUpsReplayed = cluster.CatchUpsReplayed()
	return res, nil
}

func grpName(i int) string { return fmt.Sprintf("grp-%02d", i%16) }

// Print renders the run summary.
func (r *ChaosResult) Print(out io.Writer) {
	fmt.Fprintf(out, "chaos: online backfill + %d rebalances under live writes\n", r.Rebalances)
	fmt.Fprintf(out, "  inserted %d, deleted %d, read-back checks %d\n", r.Inserted, r.Deleted, r.Reads)
	fmt.Fprintf(out, "  conditional writers: %d accepted swaps, all model-checked; %d fence retries\n",
		r.CASAccepted, r.FenceRejects)
	fmt.Fprintf(out, "  replicas converged (byte-identical per key); %d tombstones swept\n", r.TombsSwept)
	if r.Kills > 0 || r.Partitions > 0 {
		fmt.Fprintf(out, "  faults: %d kills, %d partitions; %d writes queued for dead nodes, %d replayed; %d ops retried\n",
			r.Kills, r.Partitions, r.CatchUpsQueued, r.CatchUpsReplayed, r.RetriedOps)
	}
	fmt.Fprintf(out, "  final: %d records, %d index entries, routing epoch %d — clean\n\n",
		r.Records, r.Entries, r.Epoch)
}
