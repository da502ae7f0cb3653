package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/sim"
	"piql/internal/value"
)

// TestKillDuringWrite pins what a write owes its caller when a partition
// of the store is unreachable: an error that classifies Retryable, or its
// full effect — never neither. Every case used to end in "neither": the
// store reported an unreachable partition on a side channel the write
// path did not read, so "unreachable" was acted on as "absent".
//
// The cluster has replication factor 1, so partitioning one node away
// makes exactly its key range unreachable (partition p lives on node p).
// Where the fault has to land between two store calls of one statement,
// the statement runs on the virtual clock and an injector process cuts
// the node off once the session has issued a given number of operations.
// After every case the node is healed, the statement is retried, and the
// store is audited: no owner is past its CARDINALITY LIMIT, index GC
// succeeds, and every secondary index equals a fresh rebuild from the
// records — which also proves GC, then and before, removed no live entry.
func TestKillDuringWrite(t *testing.T) {
	const (
		insertFull = `INSERT INTO notes VALUES ('full', 'd', 't1')`
		insertDup  = `INSERT INTO notes VALUES ('o10', 'a', 't0')` // identical to a loaded row
		update     = `UPDATE notes SET tag = 'tz' WHERE owner = 'o10' AND id = 'a'`
		del        = `DELETE FROM notes WHERE owner = 'o10' AND id = 'a'`
		createIx   = `CREATE INDEX by_id ON notes (id, owner)`
	)
	cases := []struct {
		name string
		// victim names a key whose node is cut off.
		victim func(f *killFixture) []byte
		// afterOps > 0 runs stmt on the virtual clock and cuts the node off
		// once the session has issued that many store operations; 0 cuts
		// it off before stmt starts.
		afterOps int64
		stmt     func(f *killFixture, s *Session) error
		// refusal, when set, is the definitive (non-retryable) error the
		// statement must end in; when nil it must end in success.
		refusal any
		// effect, when set, checks the statement's effect once it (or its
		// retry) has claimed success.
		effect func(f *killFixture) error
	}{
		{
			// The count behind CARDINALITY LIMIT skipped the unreachable
			// partition, counted 0, and admitted a 4th row under limit 3.
			name:    "insert, constraint-index partition down",
			victim:  func(f *killFixture) []byte { return f.ownerEntry("full", "a", "t1") },
			stmt:    func(f *killFixture, s *Session) error { return s.Exec(insertFull) },
			refusal: new(*index.ErrCardinalityExceeded),
		},
		{
			// A duplicate insert's rollback re-read the colliding row after
			// its partition went away (entry puts: 2 ops, test-and-set: 1),
			// took it for deleted, and deleted the entries the surviving
			// row shares with the duplicate.
			name:     "insert, record partition down before the duplicate rollback reads",
			victim:   func(f *killFixture) []byte { return f.recordKey("o10", "a") },
			afterOps: 3,
			stmt:     func(f *killFixture, s *Session) error { return s.Exec(insertDup) },
			refusal:  new(*index.ErrDuplicateKey),
		},
		{
			// An UPDATE reads its row once, in the engine; that read failing
			// must not be reported as a missing row — fatal, so the caller
			// would drop the update. (The maintainer used to read the row a
			// second time, and did report exactly that.)
			name:   "update, record partition down before the read",
			victim: func(f *killFixture) []byte { return f.recordKey("o10", "a") },
			stmt:   func(f *killFixture, s *Session) error { return s.Exec(update) },
			effect: func(f *killFixture) error { return f.wantTag("o10", "a", "tz") },
		},
		{
			// Delete read "unreachable" as "already gone" and returned nil
			// without deleting.
			name:   "delete, record partition down",
			victim: func(f *killFixture) []byte { return f.recordKey("o10", "a") },
			stmt:   func(f *killFixture, s *Session) error { return s.Exec(del) },
			effect: func(f *killFixture) error {
				if _, _, ok, err := f.cl.Read(f.recordKey("o10", "a"), kvstore.ReadOpts{}); err != nil || ok {
					return fmt.Errorf("row still readable after the delete (ok=%v, err=%v)", ok, err)
				}
				return nil
			},
		},
		{
			// The backfill scan skipped the unreachable partition's rows and
			// the index was flipped ready without them (the audit compares
			// every ready index with a rebuild).
			name:   "create index, table partition down",
			victim: func(f *killFixture) []byte { return f.recordKey("o10", "a") },
			stmt:   func(f *killFixture, s *Session) error { return s.Exec(createIx) },
			effect: func(f *killFixture) error {
				if st := f.eng.Catalog().IndexState(f.index("by_id")); st != schema.StateReady {
					return fmt.Errorf("index state %v after the build, want ready", st)
				}
				return nil
			},
		},
		{
			// GC read every record on the unreachable partition as gone and
			// deleted the live rows' index entries.
			name:   "gc, table partition down",
			victim: func(f *killFixture) []byte { return f.recordKey("o10", "a") },
			stmt: func(f *killFixture, s *Session) error {
				_, err := index.NewMaintainer(f.eng).GCDangling(s.Client(), f.index("by_tag"))
				return err
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newKillFixture(t)
			defer f.env.Stop()
			victim := f.nodeOf(tc.victim(f))
			err := f.runWithFault(t, victim, tc.afterOps, func(s *Session) error { return tc.stmt(f, s) })
			if !f.cluster.NodeDown(victim) {
				t.Fatal("the fault never fired")
			}
			// A nil error, or the refusal the statement is due, claims the
			// full outcome and is held to it below. Any other error must
			// be one the caller knows to retry.
			due := func(err error) bool { return tc.refusal != nil && errors.As(err, tc.refusal) }
			if err != nil && !due(err) && !Retryable(err) {
				t.Fatalf("with node %d unreachable: %v — not Retryable, so the caller gives up on a write that only needed a retry", victim, err)
			}
			f.cluster.Heal()
			if Retryable(err) {
				err = tc.stmt(f, f.eng.Session(nil))
			}
			if tc.refusal != nil && !due(err) {
				t.Fatalf("after the heal the statement ended in %v, want %T", err, tc.refusal)
			}
			if tc.refusal == nil && err != nil {
				t.Fatalf("after the heal the statement still fails: %v", err)
			}
			if tc.effect != nil {
				if err := tc.effect(f); err != nil {
					t.Fatalf("statement claimed success without its effect: %v", err)
				}
			}
			f.audit(t)
		})
	}
}

// killFixture is one RF=1 simulated cluster holding the notes table: 40
// owners with two rows each, one owner ("full") at its cardinality limit
// of 3, and two secondary indexes. After the rebalance the records and
// the entries of each index lie on different nodes.
type killFixture struct {
	env     *sim.Env
	cluster *kvstore.Cluster
	eng     *Engine
	cl      *kvstore.Client // immediate-mode, for setup and audit
	table   *schema.Table
}

func newKillFixture(t *testing.T) *killFixture {
	t.Helper()
	env := sim.NewEnv()
	cluster := kvstore.New(kvstore.Config{Nodes: 6, ReplicationFactor: 1, Seed: 16}, env)
	f := &killFixture{env: env, cluster: cluster, eng: New(cluster), cl: cluster.NewClient(nil)}
	s := f.eng.Session(nil)
	exec := func(sql string, params ...value.Value) {
		t.Helper()
		if err := s.Exec(sql, params...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	exec(`CREATE TABLE notes (owner VARCHAR(10), id VARCHAR(10), tag VARCHAR(10),
		PRIMARY KEY (owner, id), CARDINALITY LIMIT 3 (owner))`)
	exec(`CREATE INDEX by_owner ON notes (owner, tag, id)`)
	exec(`CREATE INDEX by_tag ON notes (tag, owner, id)`)
	for o := 0; o < 40; o++ {
		for _, id := range []string{"a", "b"} {
			exec(`INSERT INTO notes VALUES (?, ?, ?)`, value.Str(fmt.Sprintf("o%02d", o)), value.Str(id), value.Str(fmt.Sprintf("t%d", o%5)))
		}
	}
	for _, id := range []string{"a", "b", "c"} {
		exec(`INSERT INTO notes VALUES ('full', ?, 't1')`, value.Str(id))
	}
	cluster.Rebalance()
	f.table = f.eng.Catalog().Table("notes")
	if rec, ent := f.nodeOf(f.recordKey("full", "d")), f.nodeOf(f.ownerEntry("full", "a", "t1")); rec == ent {
		t.Fatalf("fixture: records and by_owner entries of owner full share node %d", rec)
	}
	return f
}

func (f *killFixture) index(name string) *schema.Index {
	for _, ix := range f.eng.Catalog().Indexes("notes") {
		if ix.Name == name {
			return ix
		}
	}
	panic("no index " + name)
}

func (f *killFixture) recordKey(owner, id string) []byte {
	return index.RecordKeyFromPK(f.table, value.Row{value.Str(owner), value.Str(id)})
}

// ownerEntry returns the by_owner entry key of one row.
func (f *killFixture) ownerEntry(owner, id, tag string) []byte {
	return index.EntryKeys(f.index("by_owner"), f.table, value.Row{value.Str(owner), value.Str(id), value.Str(tag)})[0]
}

// nodeOf returns the node holding key: with RF=1 and every node up at
// the rebalance, partition p is placed on node p.
func (f *killFixture) nodeOf(key []byte) int {
	splits := f.cluster.Splits()
	return sort.Search(len(splits), func(i int) bool { return bytes.Compare(key, splits[i]) < 0 })
}

// runWithFault runs stmt with node cut off: before it starts (afterOps
// 0, immediate mode), or — on the virtual clock — as soon as stmt's
// session has issued afterOps store operations. A store call touches its
// node's data before it pays the visit that counts it, so operation
// number afterOps completes normally and the next one finds the node gone.
func (f *killFixture) runWithFault(t *testing.T, node int, afterOps int64, stmt func(*Session) error) error {
	t.Helper()
	cut := func() {
		keep := make([]int, 0, f.cluster.NumNodes())
		for id := 0; id < f.cluster.NumNodes(); id++ {
			if id != node {
				keep = append(keep, id)
			}
		}
		f.cluster.Partition(keep)
	}
	if afterOps == 0 {
		cut()
		return stmt(f.eng.Session(nil))
	}
	var err error
	done := false
	f.env.Spawn(func(p *sim.Proc) {
		s := f.eng.Session(p)
		f.env.Spawn(func(inj *sim.Proc) {
			for !done && s.Client().Ops() < afterOps {
				inj.Sleep(time.Microsecond)
			}
			if !done {
				cut()
			}
		})
		err = stmt(s)
		done = true
	})
	f.env.Run(0)
	return err
}

func (f *killFixture) wantTag(owner, id, tag string) error {
	rec, _, ok, err := f.cl.Read(f.recordKey(owner, id), kvstore.ReadOpts{})
	if err != nil || !ok {
		return fmt.Errorf("row (%s, %s) unreadable: ok=%v err=%v", owner, id, ok, err)
	}
	row, err := value.DecodeRow(rec)
	if err != nil {
		return err
	}
	if got := row[f.table.ColumnIndex("tag")].S; got != tag {
		return fmt.Errorf("row (%s, %s) has tag %q, want %q", owner, id, got, tag)
	}
	return nil
}

// audit checks the healed store: cardinality limits hold, and after a
// GC pass (which may collect the benign dangling entries a failed write
// leaves, and must succeed) every ready secondary index holds exactly
// the entries its table's records produce.
func (f *killFixture) audit(t *testing.T) {
	t.Helper()
	perOwner := make(map[string]int)
	var rows []value.Row
	for _, kv := range scanPrefix(f.cl, index.RecordPrefix(f.table)) {
		row, err := value.DecodeRow(kv.Value)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
		perOwner[row[0].S]++
	}
	for owner, n := range perOwner {
		if n > 3 {
			t.Errorf("owner %s holds %d rows, past CARDINALITY LIMIT 3", owner, n)
		}
	}
	for _, ix := range f.eng.Catalog().Indexes("notes") {
		if ix.Primary || f.eng.Catalog().IndexState(ix) != schema.StateReady {
			continue
		}
		if _, err := index.NewMaintainer(f.eng).GCDangling(f.cl, ix); err != nil {
			t.Fatalf("gc of %s on the healed cluster: %v", ix.Name, err)
		}
		want := make(map[string]bool)
		for _, row := range rows {
			for _, ekey := range index.EntryKeys(ix, f.table, row) {
				want[string(ekey)] = true
			}
		}
		for _, kv := range scanPrefix(f.cl, index.IndexPrefix(ix)) {
			if !want[string(kv.Key)] {
				t.Errorf("%s: entry %q has no record behind it after GC", ix.Name, kv.Key)
			}
			delete(want, string(kv.Key))
		}
		for k := range want {
			t.Errorf("%s: live record lost its entry %q", ix.Name, k)
		}
	}
}
