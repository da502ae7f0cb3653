package harness

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"piql/internal/codec"
	"piql/internal/engine"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/value"
)

// ChaosConfig drives the online-operations chaos workload: real
// goroutines hammer the write path of one engine while a secondary
// index is built and the cluster rebalances, repeatedly, under it all.
// It is the end-to-end proof (run under -race in CI) that the two
// formerly quiescent operations — backfill and rebalance — are safe
// under live traffic.
type ChaosConfig struct {
	// Nodes is the cluster size.
	Nodes int
	// Writers is the number of concurrent writer goroutines.
	Writers int
	// OpsPerWriter is each writer's operation count (inserts, updates,
	// deletes, and read-back checks).
	OpsPerWriter int
	// Rebalances is how many times the cluster rebalances during the run.
	Rebalances int
	// CASWriters is the number of conditional-writer goroutines racing
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
	// MoveChunkKeys bounds the rebalance copy's chunk windows (0 =
	// store default); the chaos run keeps it small so every rebalance
	// crosses many windows.
	MoveChunkKeys int
	// Seed drives the cluster's randomness.
	Seed int64
	// Faults, when non-nil, injects real failures into the storm: node
	// crashes, partitions, and the falsification knobs that prove the
	// recovery machinery is load-bearing.
	Faults *FaultSchedule
}

// FaultSchedule switches on fault injection during the chaos storm.
// The victim node is fixed (see RunChaos — a node owning the
// record-carrying head partitions), so the schedule is deterministic
// given the config.
type FaultSchedule struct {
	// KillRestart crashes the victim concurrently with a mid-storm
	// rebalance and restarts it two rebalances later — the catch-up
	// replay and lease re-grant path. Writes acked during the outage
	// must survive it.
	KillRestart bool
	// Partition cuts the victim away from the client side mid-storm and
	// heals it two rebalances later, with the storm paced so the
	// victim's leases expire and a rebalance reclaims its ranges while
	// it is unreachable.
	Partition bool
	// LeaseMs overrides the cluster's lease duration in milliseconds
	// (default 40). Short leases let reclaim happen inside the run;
	// a long lease (e.g. 60000) pins ownership across the outage so
	// recovery rides on catch-up replay alone.
	LeaseMs int
	// OpDeadlineMs bounds each writer operation's retry-on-transient
	// loop (default 10000). An op still failing past the deadline fails
	// the run: that is a wedge, not a transient.
	OpDeadlineMs int
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

func (f *FaultSchedule) opDeadline() time.Duration {
	if f.OpDeadlineMs > 0 {
		return time.Duration(f.OpDeadlineMs) * time.Millisecond
	}
	return 10 * time.Second
}

// DefaultChaosConfig keeps the run under a second in immediate mode.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Nodes: 6, Writers: 8, OpsPerWriter: 300, Rebalances: 8,
		CASWriters: 6, CASKeys: 4, CASOpsPerWriter: 400, MoveChunkKeys: 32,
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

// RunChaos builds a table, starts the writer fleet, and — while the
// fleet runs — creates a secondary index (online backfill) and
// rebalances the cluster repeatedly. Every writer checks
// read-your-writes after each operation through a bounded point query.
// After the fleet drains, RunChaos audits the store: each surviving row
// must have exactly its index entries (none missing, none dangling) and
// be readable through the ready index.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Writers <= 0 {
		cfg.Writers = 4
	}
	if cfg.OpsPerWriter <= 0 {
		cfg.OpsPerWriter = 200
	}
	if cfg.CASWriters > 0 && cfg.CASKeys <= 0 {
		cfg.CASKeys = 1 // the audit loop must cover every key the fleet touches
	}
	f := cfg.Faults
	kcfg := kvstore.Config{
		Nodes:             cfg.Nodes,
		ReplicationFactor: 2,
		Seed:              cfg.Seed,
		MoveChunkKeys:     cfg.MoveChunkKeys,
	}
	if f != nil {
		kcfg.LeaseDuration = f.lease()
	}
	cluster := kvstore.New(kcfg, nil)
	if f != nil {
		cluster.SetFailover(!f.DisableFailover)
		cluster.SetCatchUpReplay(!f.DisableCatchUpReplay)
	}
	eng := engine.New(cluster)
	loader := eng.Session(nil)
	if err := loader.Exec(`CREATE TABLE chaos_rows (
		id VARCHAR(40), grp VARCHAR(20), body VARCHAR(60),
		PRIMARY KEY (id))`); err != nil {
		return nil, err
	}
	for i := 0; i < 200; i++ {
		if err := loader.Exec(`INSERT INTO chaos_rows VALUES (?, ?, 'seed row')`,
			value.Str(fmt.Sprintf("seed-%04d", i)), value.Str(grpName(i))); err != nil {
			return nil, err
		}
	}
	cluster.Rebalance() // spread the seed data before the storm

	res := &ChaosResult{}
	var inserted, deleted, reads, retried atomic.Int64
	// Under a fault schedule, transient errors — a dead primary inside
	// its lease window, a fence retry budget exhausted against it — are
	// legal write outcomes; the writers retry them against a generous
	// deadline. An op still transient past the deadline fails the run:
	// that is a wedge (or a lost acked write), not a blip. Reads are
	// never retried — failover is supposed to make them succeed on the
	// first try, and retrying would mask its absence.
	opDeadline := 10 * time.Second
	if f != nil {
		opDeadline = f.opDeadline()
	}
	retry := func(op func() error) error {
		var once bool
		deadline := time.Now().Add(opDeadline)
		for {
			err := op()
			if err == nil || !engine.Retryable(err) || time.Now().After(deadline) {
				return err
			}
			if !once {
				once = true
				retried.Add(1)
			}
			time.Sleep(time.Millisecond) //lint:allow simsleep — wall-clock fault-window pacing; the cluster is immediate-mode
		}
	}
	errs := make(chan error, cfg.Writers)
	var wg sync.WaitGroup
	var writersAlive atomic.Int64
	// stormDone releases the writer fleet: each writer runs at least its
	// OpsPerWriter and then keeps going until the storm (index build,
	// rebalances, fault schedule) has finished, so faults always land on
	// live traffic no matter how long the backfill took.
	var stormDone atomic.Bool
	writersAlive.Store(int64(cfg.Writers))
	for g := 0; g < cfg.Writers; g++ {
		wg.Add(1)
		//lint:allow goroleak — writer fleet is wg-joined below; the loop is bounded by stormDone, which the storm goroutine sets via defer. The opaque call is the retry closure, whose attempts are capped.
		go func(g int) {
			defer wg.Done()
			defer writersAlive.Add(-1)
			s := eng.Session(nil)
			fail := func(format string, args ...any) {
				select {
				case errs <- fmt.Errorf("writer %d: "+format, append([]any{g}, args...)...):
				default:
				}
			}
			alive := make(map[int]bool) // writer-local row ids believed live
			for i := 0; i < cfg.OpsPerWriter || !stormDone.Load(); i++ {
				id := fmt.Sprintf("w%02d-%05d", g, i%119)
				switch i % 5 {
				case 0, 1, 2: // insert a fresh row (or collide with a live one)
					err := retry(func() error {
						return s.Exec(`INSERT INTO chaos_rows VALUES (?, ?, ?)`,
							value.Str(id), value.Str(grpName(g)), value.Str(fmt.Sprintf("body-%d", i)))
					})
					if err == nil {
						if alive[i%119] {
							fail("insert of live row %s succeeded", id)
							return
						}
						alive[i%119] = true
						inserted.Add(1)
					} else if alive[i%119] {
						// duplicate collision with our own live row: expected
					} else {
						fail("insert %s: %v", id, err)
						return
					}
				case 3: // update a live row
					if alive[i%119] {
						if err := retry(func() error {
							return s.Exec(`UPDATE chaos_rows SET body = ? WHERE id = ?`,
								value.Str(fmt.Sprintf("upd-%d", i)), value.Str(id))
						}); err != nil {
							fail("update %s: %v", id, err)
							return
						}
					}
				case 4: // delete a live row
					if alive[i%119] {
						if err := retry(func() error {
							return s.Exec(`DELETE FROM chaos_rows WHERE id = ?`, value.Str(id))
						}); err != nil {
							fail("delete %s: %v", id, err)
							return
						}
						delete(alive, i%119)
						deleted.Add(1)
					}
				}
				// Read-your-writes through the query path: a point query on
				// the primary key must see exactly what this writer believes.
				q, err := s.Query(`SELECT id FROM chaos_rows WHERE id = ? LIMIT 1`, value.Str(id))
				if err != nil {
					fail("point query %s: %v", id, err)
					return
				}
				reads.Add(1)
				if got, want := len(q.Rows), alive[i%119]; (got == 1) != want {
					fail("point query %s returned %d rows, want live=%v (op %d)", id, got, want, i)
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
					fail("seed read %s: %v", sid, err)
					return
				}
				reads.Add(1)
				if len(q.Rows) != 1 {
					fail("seed row %s unreadable: got %d rows", sid, len(q.Rows))
					return
				}
			}
		}(g)
	}

	// The conditional-writer fleet: raw TestAndSet races on shared store
	// keys, each writer expecting the value it just read and installing a
	// globally unique one. Accepted swaps are recorded for the serial
	// model audit after the run.
	type casSwap struct{ key, expect, update string }
	var casMu sync.Mutex
	var casAccepted []casSwap
	casKey := func(i int) []byte { return []byte(fmt.Sprintf("chaos-cas-%02d", i%cfg.CASKeys)) }
	for g := 0; g < cfg.CASWriters; g++ {
		wg.Add(1)
		//lint:allow goroleak — CAS fleet is wg-joined with a bounded CASOpsPerWriter loop; the opaque call is the casKey closure, which only formats a key.
		go func(g int) {
			defer wg.Done()
			cl := cluster.NewClient(nil)
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
					// simply retries — after a pause, so the fleet does not
					// burn its whole attempt budget inside one fault window.
					time.Sleep(time.Millisecond) //lint:allow simsleep — wall-clock fault-window pacing; the cluster is immediate-mode
					continue
				}
				if swapped {
					casMu.Lock()
					casAccepted = append(casAccepted, casSwap{string(k), string(cur), string(up)})
					casMu.Unlock()
				}
			}
		}(g)
	}

	// The storm: build an index and rebalance, all while the fleet
	// writes — and, under a fault schedule, crash/partition the victim
	// node mid-storm. The kill is issued concurrently with a rebalance
	// so it lands inside the move windows; the partition window is paced
	// past the lease duration so a later rebalance reclaims the victim's
	// ranges while it is unreachable.
	stormErr := make(chan error, 1)
	var rebalanced, kills, partitions atomic.Int64
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
	wg.Add(1)
	//lint:allow goroleak — storm driver is wg-joined; the opaque call is the doRebalance closure over Cluster.Rebalance, which returns, and the fault schedule is finite.
	go func() {
		defer wg.Done()
		defer stormDone.Store(true)
		s := eng.Session(nil)
		if err := s.Exec(`CREATE INDEX chaos_grp ON chaos_rows (grp, id)`); err != nil {
			stormErr <- err
			return
		}
		doRebalance := func() {
			cluster.Rebalance()
			rebalanced.Add(1)
		}
		used := 0
		if f == nil {
			for ; used < cfg.Rebalances; used++ {
				doRebalance()
			}
			stormErr <- nil
			return
		}
		// Fault schedule, gated on the writer fleet's read-back count so
		// the outage window always has live traffic inside it: the fleet
		// keeps writing until stormDone, so waiting for a delta of
		// read-backs before the fault — and another before recovery —
		// guarantees acked writes, failover reads, and conditional
		// decisions inside the window. The timeout matters during an
		// outage: once every writer is parked retrying an op whose
		// primary is the dead victim, reads stop advancing — and the
		// recovery this wait gates is the only thing that can unpark
		// them.
		waitReads := func(delta int64) {
			target := reads.Load() + delta
			deadline := time.Now().Add(2 * time.Second)
			for reads.Load() < target && writersAlive.Load() > 0 && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond) //lint:allow simsleep — wall-clock fleet pacing; the cluster is immediate-mode
			}
		}
		// Outage rows are written once while the victim is away and read
		// back by the storm, not retried: during the outage some reads
		// pick the victim and only failover serves them; after recovery
		// some read its copy, which only replay brought up to date. The
		// fleet rewrites its keys too often, and picks replicas too much
		// by timing, to fail a falsified run for certain. Interleaved with
		// the seed rows and every writer's ids, they land in every record
		// partition. An insert whose primary is the dead victim decides
		// nothing; it is retried after recovery instead of read back.
		var failed error // kept while the schedule runs on and recovers
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
			for _, id := range acked {
				if q, err := s.Query(`SELECT id FROM chaos_rows WHERE id = ? LIMIT 1`, value.Str(id)); err != nil || len(q.Rows) != 1 {
					failed = cmp.Or(failed, fmt.Errorf("chaos: outage row %s unread %s (read error: %v)", id, when, err))
					return
				}
			}
		}
		doRebalance()
		used++
		waitReads(300)
		if f.KillRestart {
			// The crash is issued concurrently with a rebalance so it
			// lands inside the move windows.
			killDone := make(chan struct{})
			go func() {
				cluster.Kill(victim)
				kills.Add(1)
				close(killDone)
			}()
			doRebalance()
			used++
			<-killDone
		}
		if f.Partition {
			keep := make([]int, 0, cfg.Nodes-1)
			for id := 0; id < cfg.Nodes; id++ {
				if id != victim {
					keep = append(keep, id)
				}
			}
			cluster.Partition(keep)
			partitions.Add(1)
		}
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
			time.Sleep(f.lease() + f.lease()/4) //lint:allow simsleep — wall-clock lease expiry; the cluster is immediate-mode
			doRebalance()
			used++
		}
		// Mid-outage rebalance: moves must survive a dead owner.
		doRebalance()
		used++
		waitReads(800)
		if f.KillRestart {
			cluster.Restart(victim)
		}
		if f.Partition {
			cluster.Heal()
		}
		// Before a rebalance can re-copy a range onto a stale node.
		readOutage("after recovery")
		for _, id := range late {
			if err := retry(func() error { return insertOutage(id) }); err != nil {
				failed = cmp.Or(failed, fmt.Errorf("chaos: outage insert %s: %w", id, err))
				break
			}
		}
		for ; used < cfg.Rebalances; used++ {
			doRebalance()
		}
		// Safety net: whatever the schedule left down comes back now, so
		// the drain converges. The falsification knobs
		// (DisableCatchUpReplay) still leave recovered nodes stale —
		// that breakage is the point.
		cluster.Heal()
		if cluster.NodeDown(victim) {
			cluster.Restart(victim)
		}
		stormErr <- failed
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}
	if err := <-stormErr; err != nil {
		return nil, err
	}

	// Serial model check of every conditional outcome: per key the
	// accepted swaps must chain — one accept per state, starting from
	// absent, ending at the stored value. A fork means two swaps were
	// accepted from the same state (a double-accept across an epoch
	// flip); a short or mis-terminated chain means an accepted swap was
	// lost.
	auditCl := cluster.NewClient(nil)
	// The audit's own reads can fail too. One that does is retried while
	// it is transient and then reported as what it is — a range the audit
	// could not read — never as the lost write or missing index entry that
	// an unread range would otherwise pass for.
	unreadable := func(key []byte, err error) error {
		return fmt.Errorf("chaos: audit could not read partition owning %q: %w", key, err)
	}
	auditScan := func(prefix []byte) (kvs []kvstore.KV, err error) {
		end := codec.PrefixEnd(prefix)
		err = retry(func() (err error) {
			kvs, err = auditCl.Scan(kvstore.RangeRequest{Start: prefix, End: end}, kvstore.ReadOpts{})
			return err
		})
		if err == nil {
			return kvs, nil
		}
		// Name a key the unreadable partition owns: probe the lower bound
		// of every partition the range spans.
		probes := [][]byte{prefix}
		for _, split := range cluster.Splits() {
			if bytes.Compare(split, prefix) > 0 && bytes.Compare(split, end) < 0 {
				probes = append(probes, split)
			}
		}
		for _, k := range probes {
			if _, _, _, perr := auditCl.Read(k, kvstore.ReadOpts{}); perr != nil {
				return nil, unreadable(k, perr)
			}
		}
		return nil, unreadable(prefix, err)
	}
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
		var got []byte
		var ok bool
		if err := retry(func() (err error) {
			got, _, ok, err = auditCl.Read([]byte(k), kvstore.ReadOpts{})
			return err
		}); err != nil {
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
	res.TombsSwept = int64(cluster.GCTombstones(0))
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
	gc := index.NewMaintainer(eng)
	if err := retry(func() error {
		_, err := gc.GCDangling(auditCl, ix)
		return err
	}); err != nil {
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

	res.Inserted = inserted.Load()
	res.Deleted = deleted.Load()
	res.Reads = reads.Load()
	res.Rebalances = int(rebalanced.Load())
	res.Epoch = cluster.Epoch()
	res.Kills = kills.Load()
	res.Partitions = partitions.Load()
	res.CatchUpsQueued = cluster.CatchUpsQueued()
	res.CatchUpsReplayed = cluster.CatchUpsReplayed()
	res.RetriedOps = retried.Load()
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
