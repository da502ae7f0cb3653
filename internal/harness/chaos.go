package harness

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"time"

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
	// Fault is the failure the storm injects into its victim node.
	Fault Fault
}

// Fault is the failure a storm injects mid-storm into its victim node
// (see victim), and so the storm's schedule.
type Fault int

const (
	// NoFault runs the storm with every node up.
	NoFault Fault = iota
	// KillRestart crashes the victim inside a mid-storm rebalance and
	// restarts it two rebalances later: the catch-up replay and lease
	// re-grant path. Its lease of a minute pins ownership across the
	// outage, so recovery rides on read failover and catch-up replay
	// alone. Writes acked during the outage must survive it.
	KillRestart
	// Partition cuts the victim away from the client side mid-storm and
	// heals it two rebalances later. Its lease is 40 ms, and the storm
	// waits it out, so a rebalance reclaims the victim's ranges while it
	// is unreachable.
	Partition
)

// lease is the cluster's lease duration under the fault, on the virtual
// clock; zero keeps the store's default.
func (f Fault) lease() time.Duration {
	return [...]time.Duration{KillRestart: time.Minute, Partition: 40 * time.Millisecond}[f]
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
	// chaosSeedRows is how many rows the table holds before the storm.
	chaosSeedRows = 200
	// chaosWriterIDs is the cycle of row ids each writer reuses.
	chaosWriterIDs = 119
)

// victim is the node the fault strikes. The choice is load-bearing.
// Record keys sort before index-entry keys, so the head partitions hold
// the table's records and the tail partitions hold index entries; under
// the arithmetic placement (partition p is owned by nodes p and p+1)
// each node is primary of partition <id> and secondary of partition
// <id>-1. Killing the tail node takes only index ranges offline — the
// fleet's record reads never route to it and failover goes unexercised.
// Killing a record partition's *primary* parks every writer whose
// TestAndSet needs it (the kill's minute-long lease pins ownership),
// choking the very traffic the outage should land on. Node 3 is the
// sweet spot: secondary of the record-carrying partition holding most
// writers' keys — so reads route to it half the time (failover is
// demonstrably load-bearing) and acked writes queue catch-ups on it
// (replay is demonstrably load-bearing) — while its own primary ranges
// hold only index entries, whose plain puts queue rather than park.
const victim = 3

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

	// Fault-injection evidence (zero under NoFault): the survival tests
	// require these to prove the faults actually fired.
	Kills            int64 // node crashes injected
	Partitions       int64 // partitions injected
	CatchUpsQueued   int64 // writes queued for unreachable nodes
	CatchUpsReplayed int64 // queued writes replayed at rejoin
	RetriedOps       int64 // writer ops that needed at least one transient retry
}

// RunChaos builds a table and runs three parts as processes of one
// sim.Env: the fleet of writers and conditional writers, the fault
// process, which creates a secondary index (online backfill),
// rebalances the cluster repeatedly and injects the fault, and the
// oracle, which checks every read any of them makes against its model
// of acknowledged rows and, once they have finished, audits the store:
// the conditional swaps chain, the replicas converge, and the index
// mirrors the records exactly. A storm still running at chaosTimeLimit
// of virtual time is wedged: it fails, naming the fault process's last
// step.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) { return runChaos(cfg, chaosTimeLimit) }

// storm is one run's state. Its processes run one at a time, so they
// share it without locks.
type storm struct {
	ChaosConfig
	*rig
	res     ChaosResult
	o       oracle
	failed  error  // the first error any process hit
	step    string // the fault process's last step, for a wedged storm's error
	done    bool   // the fault process has finished
	running int    // fleet processes still running
}

// runChaos is RunChaos with the storm cut off at limit of virtual time.
func runChaos(cfg ChaosConfig, limit time.Duration) (*ChaosResult, error) {
	if cfg.CASWriters > 0 && cfg.CASKeys <= 0 {
		cfg.CASKeys = 1 // the audit loop must cover every key the fleet touches
	}
	r, err := newRig(kvstore.Config{
		Nodes:             cfg.Nodes,
		ReplicationFactor: 2,
		Seed:              cfg.Seed,
		MoveChunkKeys:     chaosMoveChunkKeys,
		LeaseDuration:     cfg.Fault.lease(),
	}, sim.NewEnv(), []string{`CREATE TABLE chaos_rows (
		id VARCHAR(40), grp VARCHAR(20), body VARCHAR(60),
		PRIMARY KEY (id))`})
	if err != nil {
		return nil, err
	}
	s := &storm{ChaosConfig: cfg, rig: r, o: oracle{live: make(map[string]bool)}, step: "create index"}
	for i := 0; i < chaosSeedRows; i++ {
		if err := r.loader.Exec(`INSERT INTO chaos_rows VALUES (?, ?, 'seed row')`,
			value.Str(seedRow(i)), value.Str(grpName(i))); err != nil {
			return nil, err
		}
		s.o.live[seedRow(i)] = true
	}
	r.cluster.Rebalance() // spread the seed data before the storm

	s.running = cfg.Writers + cfg.CASWriters
	for g := 0; g < cfg.Writers; g++ {
		r.env.Spawn(func(p *sim.Proc) { s.writer(p, g) })
	}
	for g := 0; g < cfg.CASWriters; g++ {
		r.env.Spawn(func(p *sim.Proc) { s.casWriter(p, g) })
	}
	r.env.Spawn(s.faults)
	r.env.Run(limit)
	// Read the verdict before Stop: it unwinds the parked processes,
	// running their defers.
	now, finished, last, left := r.env.Now(), s.done, s.step, s.running
	r.env.Stop()
	if s.failed != nil {
		return nil, s.failed
	}
	if !finished || left > 0 {
		return nil, fmt.Errorf("chaos: storm unfinished at virtual time %v (last step: %s; %d writers still running)",
			now, last, left)
	}
	if err := s.o.audit(r, cfg.CASKeys, &s.res); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	return &s.res, nil
}

func (s *storm) fail(err error) { s.failed = cmp.Or(s.failed, err) }

// retry runs a write op until it ends in anything but a transient
// error or chaosOpDeadline passes. Under a fault, transient errors — a
// dead primary inside its lease window, a fence retry budget exhausted
// against it — are legal write outcomes. An op still transient past the
// deadline fails the run: that is a wedge (or a lost acked write), not
// a blip. Reads are never retried — failover is supposed to make them
// succeed on the first try, and retrying would mask its absence.
func (s *storm) retry(p *sim.Proc, op func() error) error {
	deadline := p.Now() + chaosOpDeadline
	err := op()
	if engine.Retryable(err) {
		s.res.RetriedOps++
	}
	for engine.Retryable(err) && p.Now() <= deadline {
		p.Sleep(chaosRetryPause)
		err = op()
	}
	return err
}

// writer is one process of the fleet. It inserts, updates and deletes
// its own rows, reading one of them and one seed row back after every
// operation. It runs at least OpsPerWriter operations and then keeps
// going until the fault process has finished, so the fault always lands
// on live traffic however long the backfill took.
func (s *storm) writer(p *sim.Proc, g int) {
	defer func() { s.running-- }()
	ses := s.eng.Session(p)
	for i := 0; i < s.OpsPerWriter || !s.done; i++ {
		if err := s.writeOnce(p, ses, g, i); err != nil {
			s.fail(fmt.Errorf("writer %d: %w", g, err))
			return
		}
	}
}

// writeOnce is writer g's operation i.
func (s *storm) writeOnce(p *sim.Proc, ses *engine.Session, g, i int) error {
	id := writerRow(g, i)
	switch {
	case i%5 < 3: // insert a fresh row (or collide with a live one)
		err := s.retry(p, func() error {
			return ses.Exec(`INSERT INTO chaos_rows VALUES (?, ?, ?)`,
				value.Str(id), value.Str(grpName(g)), value.Str(fmt.Sprintf("body-%d", i)))
		})
		if err == nil {
			s.res.Inserted++
		}
		if err := s.o.inserted(id, err); err != nil {
			return err
		}
	case s.o.live[id] && i%5 == 3: // update a live row
		if err := s.retry(p, func() error {
			return ses.Exec(`UPDATE chaos_rows SET body = ? WHERE id = ?`,
				value.Str(fmt.Sprintf("upd-%d", i)), value.Str(id))
		}); err != nil {
			return fmt.Errorf("update %s: %w", id, err)
		}
	case s.o.live[id]: // delete a live row
		if err := s.retry(p, func() error {
			return ses.Exec(`DELETE FROM chaos_rows WHERE id = ?`, value.Str(id))
		}); err != nil {
			return fmt.Errorf("delete %s: %w", id, err)
		}
		delete(s.o.live, id)
		s.res.Deleted++
	}
	// Read-your-writes, then one immutable seed row. The writers' own
	// keys cluster at the tail of the keyspace, so read-your-writes alone
	// can miss a dead node entirely; the seed rows span every partition,
	// making a read land on any victim-owned range within a few
	// iterations — the traffic that proves failover.
	for _, row := range []string{id, seedRow((g*53 + i) % chaosSeedRows)} {
		if err := s.o.read(ses, row); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		s.res.Reads++
	}
	return nil
}

// casWriter is one conditional writer of the fleet: raw TestAndSet
// races on shared store keys, each expecting the value it just read and
// installing a globally unique one. The oracle records every accepted
// swap.
func (s *storm) casWriter(p *sim.Proc, g int) {
	defer func() { s.running-- }()
	cl := s.cluster.NewClient(p)
	for i := 0; i < s.CASOpsPerWriter; i++ {
		k := casKey(g+i, s.CASKeys)
		cur, _, _, err := cl.Read(k, kvstore.ReadOpts{}) // nil = absent
		up := []byte(fmt.Sprintf("cas-w%02d-%06d", g, i))
		if err == nil {
			var swapped bool
			if swapped, err = cl.TestAndSet(k, cur, up); err == nil && swapped {
				s.o.swaps = append(s.o.swaps, casSwap{string(k), string(cur), string(up)})
			}
		}
		if err != nil {
			// Transient (key unreadable, or primary dead past the retry
			// budget): no decision was made, so the next attempt comes
			// after a pause.
			p.Sleep(chaosRetryPause)
		}
	}
}

// faults is the fault process: it builds an index and rebalances, all
// while the fleet writes, and strikes the victim with the storm's fault
// between the rebalances.
func (s *storm) faults(p *sim.Proc) {
	defer func() { s.done, s.step = true, "done" }()
	ses := s.eng.Session(p)
	if err := ses.Exec(`CREATE INDEX chaos_grp ON chaos_rows (grp, id)`); err != nil {
		s.fail(err)
		return
	}
	if s.Fault != NoFault {
		s.outage(p, ses)
	}
	for s.res.Rebalances < s.Rebalances {
		s.rebalance(ses)
	}
}

func (s *storm) rebalance(ses *engine.Session) {
	s.res.Rebalances++
	s.step = fmt.Sprintf("rebalance %d", s.res.Rebalances)
	ses.Client().Rebalance()
}

// outage strikes the victim after a rebalance and a window of traffic
// and recovers it two rebalances and another window later. The kill
// lands inside a rebalance, so inside its move windows; the partition
// is paced past its lease, so a rebalance reclaims the victim's ranges
// while it is unreachable.
//
// Outage rows are inserted once while the victim is away and read back,
// not retried: during the outage some reads pick the victim and only
// failover serves them; after recovery some read its copy, which only
// replay brought up to date. Interleaved with the seed rows and every
// writer's ids, they land in every record partition. An insert whose
// primary is the dead victim decides nothing; it is retried after
// recovery instead of read back.
func (s *storm) outage(p *sim.Proc, ses *engine.Session) {
	var rows []string
	for i := 0; i < chaosSeedRows; i += 4 {
		rows = append(rows, seedRow(i)+"-outage")
	}
	for i := 0; i < s.Writers*chaosWriterIDs; i += 4 {
		rows = append(rows, writerRow(i/chaosWriterIDs, i)+"-outage")
	}
	insert := func(id string) error {
		return ses.Exec(`INSERT INTO chaos_rows VALUES (?, 'grp-outage', 'outage row')`, value.Str(id))
	}
	readBack := func(when string) {
		s.step = "read outage rows " + when
		for _, id := range rows {
			if !s.o.live[id] {
				continue
			}
			if err := s.o.read(ses, id); err != nil {
				s.fail(fmt.Errorf("chaos: outage row unread %s: %w", when, err))
				return
			}
		}
	}
	s.rebalance(ses)
	s.step = "traffic before the fault"
	p.Sleep(chaosWindow)
	recovery := s.cluster.Heal
	if s.Fault == KillRestart {
		// The killer runs at the fault process's first park inside the
		// rebalance — its writer drain or its first copied chunk — while
		// the move table (an odd epoch) is published.
		s.env.Spawn(func(*sim.Proc) {
			if e := s.cluster.Epoch(); e%2 == 0 {
				s.fail(fmt.Errorf("chaos: the kill missed the rebalance (epoch %d)", e))
			}
			s.cluster.Kill(victim)
			s.res.Kills++
		})
		s.rebalance(ses)
		recovery = func() { s.cluster.Restart(victim) }
	} else {
		keep := make([]int, 0, s.Nodes-1)
		for id := 0; id < s.Nodes; id++ {
			if id != victim {
				keep = append(keep, id)
			}
		}
		s.cluster.Partition(keep)
		s.res.Partitions++
	}
	s.step = "insert outage rows"
	for _, id := range rows {
		if insert(id) == nil { // a lasting error fails its retry below
			s.o.live[id] = true
		}
	}
	readBack("during the outage")
	if s.Fault == Partition {
		// Let the victim's leases lapse, then rebalance: the victim's
		// ranges are reclaimed while it is still partitioned away.
		s.step = "wait out the lease"
		p.Sleep(s.Fault.lease() + s.Fault.lease()/4)
		s.rebalance(ses)
	}
	s.rebalance(ses) // mid-outage: moves must survive a dead owner
	s.step = "outage traffic"
	p.Sleep(chaosWindow)
	recovery()
	readBack("after recovery") // before a rebalance can re-copy a range onto a stale node
	s.step = "retry late outage inserts"
	for _, id := range rows {
		if s.o.live[id] {
			continue
		}
		if err := s.retry(p, func() error { return insert(id) }); err != nil {
			s.fail(fmt.Errorf("chaos: outage insert %s: %w", id, err))
			return
		}
		s.o.live[id] = true
	}
}

// oracle is the storm's model of what the store holds: the rows whose
// insert was acknowledged and whose delete was not, and every
// TestAndSet the store accepted. Every read a storm process makes is
// checked against it, and so is the store once the storm has finished.
type oracle struct {
	live  map[string]bool
	swaps []casSwap
}

type casSwap struct{ key, expect, update string }

// inserted records the outcome of an insert of row id: an ack makes the
// row live, and an insert of a live row may end in nothing but a
// duplicate key.
func (o *oracle) inserted(id string, err error) error {
	switch {
	case err == nil && o.live[id]:
		return fmt.Errorf("insert of live row %s succeeded", id)
	case err == nil:
		o.live[id] = true
	case !o.live[id] || !errors.As(err, new(*index.ErrDuplicateKey)):
		return fmt.Errorf("insert %s: %w", id, err)
	}
	return nil
}

// read checks that a bounded point query on row id's primary key sees
// exactly what the model holds.
func (o *oracle) read(ses *engine.Session, id string) error {
	q, err := ses.Query(`SELECT id FROM chaos_rows WHERE id = ? LIMIT 1`, value.Str(id))
	if err != nil {
		return fmt.Errorf("point query %s: %w", id, err)
	}
	if got, want := len(q.Rows), o.live[id]; (got == 1) != want {
		return fmt.Errorf("point query %s returned %d rows, want live=%v", id, got, want)
	}
	return nil
}

// audit checks the store once every storm process has finished and
// every node is back up, so no read meets a transient condition: an
// error is what it is — a range the audit could not read — never the
// lost write or missing index entry an unread range would pass for. It
// fills in the result's final counters.
func (o *oracle) audit(r *rig, casKeys int, res *ChaosResult) error {
	cl := r.cluster.NewClient(nil)
	if err := o.auditSwaps(cl, casKeys); err != nil {
		return err
	}
	res.CASAccepted, res.FenceRejects = int64(len(o.swaps)), r.cluster.FenceRejects()

	// Every replica of every key holds the identical versioned value —
	// audited as-is, then again after force-sweeping every delete
	// tombstone (safe: the cluster is quiesced), proving GC does not
	// disturb the converged state.
	if err := r.cluster.AuditConvergence(); err != nil {
		return err
	}
	res.TombsSwept = int64(r.cluster.GCTombstones())
	if err := r.cluster.AuditConvergence(); err != nil {
		return fmt.Errorf("post-GC: %w", err)
	}

	// The index is ready and mirrors the records exactly. GC may collect
	// the documented insert-rollback sliver (a duplicate insert's
	// rollback racing the winner's entry writes) — Section 7.2's GC-able
	// fallout class — first; a *missing* entry is never tolerable.
	cat := r.eng.Catalog()
	ixs := cat.Indexes("chaos_rows")
	ix := ixs[len(ixs)-1]
	if ix.Primary || cat.IndexState(ix) != schema.StateReady {
		return fmt.Errorf("no ready secondary index after the build (last index %s, %v)", ix.Name, cat.IndexState(ix))
	}
	m := index.NewMaintainer(r.eng)
	if _, err := m.GCDangling(cl, ix); err != nil {
		return err
	}
	records, entries, err := m.AuditMirror(cl, ix)
	if err != nil {
		return err
	}
	if records != len(o.live) {
		return fmt.Errorf("the store holds %d rows, the model %d", records, len(o.live))
	}
	res.Records, res.Entries = records, entries
	res.Epoch, res.CatchUpsQueued, res.CatchUpsReplayed = r.cluster.Epoch(), r.cluster.CatchUpsQueued(), r.cluster.CatchUpsReplayed()
	return nil
}

// auditSwaps is the serial model check of every conditional outcome:
// per key the accepted swaps must chain — one accept per state,
// starting from absent, ending at the stored value. A fork means two
// swaps were accepted from the same state (a double-accept across an
// epoch flip); a swap no chain reaches, or a chain that does not end at
// the stored value, means an accepted swap was lost.
func (o *oracle) auditSwaps(cl *kvstore.Client, casKeys int) error {
	next := make(map[[2]string]string, len(o.swaps)) // (key, expected state) → update
	for _, sw := range o.swaps {
		at := [2]string{sw.key, sw.expect}
		if prev, dup := next[at]; dup {
			return fmt.Errorf("double-accepted TestAndSet on %s: %q and %q both won from state %q",
				sw.key, prev, sw.update, sw.expect)
		}
		next[at] = sw.update
	}
	chained := 0
	for i := 0; i < casKeys; i++ {
		k := casKey(i, casKeys)
		cur := ""
		for up, ok := next[[2]string{string(k), cur}]; ok; up, ok = next[[2]string{string(k), cur}] {
			cur = up
			chained++
		}
		got, _, ok, err := cl.Read(k, kvstore.ReadOpts{})
		if err != nil {
			return fmt.Errorf("audit could not read %q: %w", k, err)
		}
		if ok != (cur != "") || string(got) != cur {
			return fmt.Errorf("lost accepted swap on %s: chain ends at %q, store holds %q (present=%v)", k, cur, got, ok)
		}
	}
	if chained != len(o.swaps) {
		return fmt.Errorf("%d swaps were accepted but the serial chains explain %d", len(o.swaps), chained)
	}
	return nil
}

func casKey(i, keys int) []byte { return []byte(fmt.Sprintf("chaos-cas-%02d", i%keys)) }

func seedRow(i int) string { return fmt.Sprintf("seed-%04d", i) }

func writerRow(g, i int) string { return fmt.Sprintf("w%02d-%05d", g, i%chaosWriterIDs) }

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
