package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/sim"
	"piql/internal/value"
)

// TestCreateIndexUnderConcurrentWrites is the online-index-build proof:
// writers insert rows non-stop while CREATE INDEX runs. Once the index
// is ready, every row — including rows written during the backfill —
// must have its entry. The seed engine documented this as a known
// write-gap ("a writer on the pre-index catalog snapshot may insert a
// row the backfill scan has already passed"); the building→ready
// lifecycle plus the writer drain closes it. Run under -race.
func TestCreateIndexUnderConcurrentWrites(t *testing.T) {
	for round := 0; round < 4; round++ {
		cluster := kvstore.New(kvstore.Config{Nodes: 4, ReplicationFactor: 2, Seed: int64(round + 1)}, nil)
		eng := New(cluster)
		loader := eng.Session(nil)
		if err := loader.Exec(`CREATE TABLE people (name VARCHAR(30), town VARCHAR(30), PRIMARY KEY (name))`); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if err := loader.Exec(`INSERT INTO people VALUES (?, 'Berkeley')`,
				value.Str(fmt.Sprintf("seed-%04d", i))); err != nil {
				t.Fatal(err)
			}
		}

		const writers = 8
		const perWriter = 400
		var inserted atomic.Int64
		errs := make(chan error, writers)
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := eng.Session(nil)
				for i := 0; i < perWriter; i++ {
					name := fmt.Sprintf("r%d-w%d-%05d", round, g, i)
					if err := s.Exec(`INSERT INTO people VALUES (?, 'Berkeley')`, value.Str(name)); err != nil {
						select {
						case errs <- fmt.Errorf("writer %d: %v", g, err):
						default:
						}
						return
					}
					inserted.Add(1)
				}
			}(g)
		}

		// Let the writers get going, then build the index under them.
		for inserted.Load() < 50 {
		}
		// The index embeds the primary key, so it carries one entry per
		// row (and is exactly the index the final query plans over).
		s := eng.Session(nil)
		if err := s.Exec(`CREATE INDEX town_ix ON people (town, name)`); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		// The index flipped ready.
		var ix *schema.Index
		for _, cand := range eng.Catalog().Indexes("people") {
			if !cand.Primary {
				ix = cand
			}
		}
		if ix == nil {
			t.Fatal("secondary index missing from catalog")
		}
		if st := eng.Catalog().IndexState(ix); st != schema.StateReady {
			t.Fatalf("index state after CREATE INDEX = %v, want ready", st)
		}

		// Zero missing entries: every record has its index entry.
		tbl := eng.Catalog().Table("people")
		cl := cluster.NewClient(nil)
		prefix := index.RecordPrefix(tbl)
		records := 0
		for _, kv := range scanPrefix(cl, prefix) {
			row, err := value.DecodeRow(kv.Value)
			if err != nil {
				t.Fatal(err)
			}
			records++
			for _, ekey := range index.EntryKeys(ix, tbl, row) {
				if _, _, ok, err := cl.Read(ekey, kvstore.ReadOpts{}); err != nil || !ok {
					t.Fatalf("round %d: row %v written during backfill is missing its index entry", round, row)
				}
			}
		}
		if want := int(inserted.Load()) + 300; records != want {
			t.Fatalf("round %d: %d records stored, want %d", round, records, want)
		}

		// And the planner serves the ready index end to end.
		p, err := s.Prepare(`SELECT name FROM people WHERE town = ? LIMIT 10000`)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Execute(s, value.Str("Berkeley"))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != records {
			t.Fatalf("round %d: index query returned %d rows, want %d", round, len(res.Rows), records)
		}
	}
}

// TestRetiringALimitIndexUnderConcurrentInserts: writers insert into an
// orders table whose CARDINALITY LIMIT 3 (owner) only its limit index
// counts, far more rows than the limit admits, while a Prepare builds
// (owner, at DESC, id), which counts the limit too and retires the limit
// index under them. No owner ends with more than three rows, every
// insert was admitted or refused by the limit, the catalog holds no
// limit index, its namespace no live key, and the new index mirrors the
// table. Run under -race.
func TestRetiringALimitIndexUnderConcurrentInserts(t *testing.T) {
	const writers, perWriter, owners, limit = 4, 300, 40, 3
	for round := 0; round < 3; round++ {
		cluster := kvstore.New(kvstore.Config{Nodes: 4, ReplicationFactor: 2, Seed: int64(round + 1)}, nil)
		eng := New(cluster)
		s := eng.Session(nil)
		if err := s.Exec(`CREATE TABLE orders (id INT, owner VARCHAR(10), at INT, PRIMARY KEY (id), CARDINALITY LIMIT 3 (owner))`); err != nil {
			t.Fatal(err)
		}
		var limitIx *schema.Index
		for _, ix := range eng.Catalog().Indexes("orders") {
			if ix.Limit {
				limitIx = ix
			}
		}
		if limitIx == nil {
			t.Fatal("orders was created without a limit index")
		}
		var started atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ws := eng.Session(nil)
				for i := 0; i < perWriter; i++ {
					started.Add(1)
					err := ws.Exec(`INSERT INTO orders VALUES (?, ?, ?)`,
						value.Int(int64(g*perWriter+i)), value.Str(fmt.Sprintf("o%02d", (g+i*writers)%owners)), value.Int(int64(i)))
					var card *index.ErrCardinalityExceeded
					if err != nil && !errors.As(err, &card) {
						t.Errorf("writer %d insert %d: %v", g, i, err)
						return
					}
				}
			}(g)
		}
		for started.Load() < 50 {
			runtime.Gosched()
		}
		const last = `SELECT id FROM orders WHERE owner = ? ORDER BY at DESC LIMIT 1`
		if _, err := s.Prepare(last); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		var cover *schema.Index
		for _, ix := range eng.Catalog().Indexes("orders") {
			switch {
			case ix.Limit:
				t.Fatalf("round %d: the catalog still holds limit index %s", round, ix.Name)
			case !ix.Primary:
				cover = ix
			}
		}
		cl := cluster.NewClient(nil)
		if keys := scanPrefix(cl, index.IndexPrefix(limitIx)); len(keys) != 0 {
			t.Errorf("round %d: the retired limit index's namespace holds %d live keys", round, len(keys))
		}
		perOwner := make(map[string]int)
		for _, kv := range scanPrefix(cl, index.RecordPrefix(eng.Catalog().Table("orders"))) {
			row, err := value.DecodeRow(kv.Value)
			if err != nil {
				t.Fatal(err)
			}
			perOwner[row[1].S]++
		}
		for owner, n := range perOwner {
			if n > limit {
				t.Errorf("round %d: owner %s holds %d rows, past CARDINALITY LIMIT %d", round, owner, n, limit)
			}
		}
		if _, _, err := index.NewMaintainer(eng).AuditMirror(cl, cover); err != nil {
			t.Errorf("round %d: %v", round, err)
		}
	}
}

// prefixEnd is codec.PrefixEnd without the import cycle concern in this
// test: smallest key greater than every key with the prefix.
// scanPrefix reads every key under prefix. The tests that use it inject
// no fault, so an error is a bug and panics.
func scanPrefix(cl *kvstore.Client, prefix []byte) []kvstore.KV {
	set := kvstore.RequestSet{Kind: kvstore.Range, Range: kvstore.RangeRequest{Start: prefix, End: prefixEnd(prefix)}}
	if err := cl.Issue(&set, kvstore.ReadOpts{}); err != nil {
		panic(err)
	}
	return set.Items
}

func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] < 0xff {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// TestSimulatedCreateIndexDrainsWriters is the sim-mode half of the
// online-build guarantee: virtual-time writer processes insert rows
// (parking mid-operation on store latency, catalog snapshot in hand)
// while another process runs CREATE INDEX. A writer still acting on a
// pre-index snapshot when the backfill scan passes its row would leave
// that row unindexed, so the builder must wait the writers out in
// virtual time: the ready index must cover every row, exactly as under
// real goroutines.
func TestSimulatedCreateIndexDrainsWriters(t *testing.T) {
	for round := 0; round < 3; round++ {
		env := sim.NewEnv()
		cluster := kvstore.New(kvstore.Config{Nodes: 4, ReplicationFactor: 2, Seed: int64(31 + round)}, env)
		eng := New(cluster)
		loader := eng.Session(nil)
		if err := loader.Exec(`CREATE TABLE simfolk (name VARCHAR(30), town VARCHAR(30), tag VARCHAR(10), PRIMARY KEY (name))`); err != nil {
			t.Fatal(err)
		}
		// A pre-built index makes every insert pay an entry put *before*
		// its record write — so a simulated writer parks mid-operation
		// with its (possibly pre-index) catalog snapshot in hand. That is
		// the window the drain must close for the index raced below.
		if err := loader.Exec(`CREATE INDEX sim_tag ON simfolk (tag, name)`); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 80; i++ {
			if err := loader.Exec(`INSERT INTO simfolk VALUES (?, 'Berkeley', 't0')`,
				value.Str(fmt.Sprintf("seed-%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		var total atomic.Int64
		var procErr error
		const writers = 4
		for g := 0; g < writers; g++ {
			g := g
			env.Spawn(func(p *sim.Proc) {
				s := eng.Session(p)
				for i := 0; i < 60; i++ {
					if err := s.Exec(`INSERT INTO simfolk VALUES (?, 'Berkeley', 't1')`,
						value.Str(fmt.Sprintf("w%d-%03d", g, i))); err != nil {
						procErr = fmt.Errorf("writer %d: %v", g, err)
						return
					}
					total.Add(1)
				}
			})
		}
		env.Spawn(func(p *sim.Proc) {
			p.Sleep(2 * time.Millisecond) // land mid-stream
			s := eng.Session(p)
			if err := s.Exec(`CREATE INDEX sim_town ON simfolk (town, name)`); err != nil {
				procErr = fmt.Errorf("create index: %v", err)
			}
		})
		env.Run(0)
		env.Stop()
		if procErr != nil {
			t.Fatal(procErr)
		}

		var ix *schema.Index
		for _, cand := range eng.Catalog().Indexes("simfolk") {
			if cand.Name == "sim_town" {
				ix = cand
			}
		}
		if ix == nil {
			t.Fatal("raced secondary index missing")
		}
		if st := eng.Catalog().IndexState(ix); st != schema.StateReady {
			t.Fatalf("index state %v after simulated build, want ready", st)
		}
		tbl := eng.Catalog().Table("simfolk")
		cl := cluster.NewClient(nil)
		prefix := index.RecordPrefix(tbl)
		records := 0
		for _, kv := range scanPrefix(cl, prefix) {
			row, err := value.DecodeRow(kv.Value)
			if err != nil {
				t.Fatal(err)
			}
			records++
			for _, ekey := range index.EntryKeys(ix, tbl, row) {
				if _, _, ok, err := cl.Read(ekey, kvstore.ReadOpts{}); err != nil || !ok {
					t.Fatalf("round %d: row %v written during the simulated backfill is missing its entry", round, row)
				}
			}
		}
		if want := int(total.Load()) + 80; records != want {
			t.Fatalf("round %d: %d records, want %d", round, records, want)
		}
	}
}

// TestSimulatedDrainHoldsSustainedWriters: simulated writers insert back
// to back until CREATE INDEX returns, so whenever the builder looks,
// some write is in progress. The barrier must hold new writes at the
// door so the ones in progress can finish: the build returns within a
// bounded stretch of virtual time, and the index covers every row.
func TestSimulatedDrainHoldsSustainedWriters(t *testing.T) {
	env := sim.NewEnv()
	cluster := kvstore.New(kvstore.Config{Nodes: 4, ReplicationFactor: 2, Seed: 17}, env)
	eng := New(cluster)
	if err := eng.Session(nil).Exec(`CREATE TABLE steady (name VARCHAR(30), town VARCHAR(30), PRIMARY KEY (name))`); err != nil {
		t.Fatal(err)
	}
	var built bool
	var procErr error
	for g := 0; g < 2; g++ {
		env.Spawn(func(p *sim.Proc) {
			s := eng.Session(p)
			for i := 0; !built; i++ {
				if err := s.Exec(`INSERT INTO steady VALUES (?, 'Berkeley')`,
					value.Str(fmt.Sprintf("w%d-%05d", g, i))); err != nil {
					procErr = fmt.Errorf("writer %d: %v", g, err)
					return
				}
			}
		})
	}
	env.Spawn(func(p *sim.Proc) {
		p.Sleep(20 * time.Millisecond) // land mid-stream
		if err := eng.Session(p).Exec(`CREATE INDEX steady_town ON steady (town, name)`); err != nil {
			procErr = fmt.Errorf("create index: %v", err)
		}
		built = true
	})
	env.Run(time.Second)
	env.Stop()
	if procErr != nil {
		t.Fatal(procErr)
	}
	if !built {
		t.Fatal("CREATE INDEX still waiting on the write barrier after 1s of virtual time under sustained writers")
	}
	for _, ix := range eng.Catalog().Indexes("steady") {
		if ix.Primary {
			continue
		}
		if _, _, err := eng.maint.AuditMirror(cluster.NewClient(nil), ix); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCreateIndexRacingDeletesNoDangling: goroutines delete rows while
// CREATE INDEX backfills their table, so the scan can re-put an entry
// after its row's delete removed it. The re-put is stamped at the scan's
// version and loses to the later delete, and the build's ghost check
// runs inside a write drain before the flip, so once CREATE INDEX and
// the deleters finish, the index must mirror the records exactly, with
// no GCDangling call.
func TestCreateIndexRacingDeletesNoDangling(t *testing.T) {
	for round := 0; round < 6; round++ {
		cluster := kvstore.New(kvstore.Config{Nodes: 4, ReplicationFactor: 2, Seed: int64(round + 41)}, nil)
		eng := New(cluster)
		loader := eng.Session(nil)
		if err := loader.Exec(`CREATE TABLE doomed (id VARCHAR(30), tag VARCHAR(20), PRIMARY KEY (id))`); err != nil {
			t.Fatal(err)
		}
		const rows = 3000
		for i := 0; i < rows; i++ {
			if err := loader.Exec(`INSERT INTO doomed VALUES (?, ?)`,
				value.Str(fmt.Sprintf("row-%04d", i)), value.Str(fmt.Sprintf("tag-%02d", i%7))); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 3)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := eng.Session(nil)
				// Race the backfill, not the loader: hold until the index is
				// registered (building), then delete while its scan re-puts
				// entries — the exact interleaving that used to dangle.
				for len(eng.Catalog().Indexes("doomed")) < 2 {
				}
				for i := g; i < rows; i += 2 { // split the rows between deleters
					if i%3 == 0 {
						continue // leave a third of the table alive
					}
					if err := s.Exec(`DELETE FROM doomed WHERE id = ?`,
						value.Str(fmt.Sprintf("row-%04d", i))); err != nil {
						select {
						case errs <- err:
						default:
						}
						return
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := eng.Session(nil)
			if err := s.Exec(`CREATE INDEX doomed_tag ON doomed (tag, id)`); err != nil {
				select {
				case errs <- err:
				default:
				}
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		var ix *schema.Index
		for _, cand := range eng.Catalog().Indexes("doomed") {
			if !cand.Primary {
				ix = cand
			}
		}
		tbl := eng.Catalog().Table("doomed")
		cl := cluster.NewClient(nil)
		want := make(map[string]bool)
		rp := index.RecordPrefix(tbl)
		for _, kv := range scanPrefix(cl, rp) {
			row, err := value.DecodeRow(kv.Value)
			if err != nil {
				t.Fatal(err)
			}
			for _, ekey := range index.EntryKeys(ix, tbl, row) {
				want[string(ekey)] = true
			}
		}
		ip := index.IndexPrefix(ix)
		for _, kv := range scanPrefix(cl, ip) {
			if !want[string(kv.Key)] {
				t.Fatalf("round %d: dangling entry %q survived the post-flip sweep", round, kv.Key)
			}
			delete(want, string(kv.Key))
		}
		for k := range want {
			t.Fatalf("round %d: record missing its entry %q", round, []byte(k))
		}
	}
}

// TestCreateIndexFailureIsRetryable pins the failed-build path: a
// backfill error leaves the index building (never ready), and a later
// build may retry.
func TestCreateIndexFailureIsRetryable(t *testing.T) {
	cluster := kvstore.New(kvstore.Config{Nodes: 2, ReplicationFactor: 1, Seed: 5}, nil)
	eng := New(cluster)
	s := eng.Session(nil)
	if err := s.Exec(`CREATE TABLE things (id VARCHAR(10), tag VARCHAR(10), PRIMARY KEY (id))`); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec(`INSERT INTO things VALUES ('a', 'x')`); err != nil {
		t.Fatal(err)
	}
	// Corrupt the record so the backfill scan fails.
	tbl := eng.Catalog().Table("things")
	cl := cluster.NewClient(nil)
	var rkey []byte
	for _, kv := range scanPrefix(cl, index.RecordPrefix(tbl)) {
		rkey = kv.Key
		cl.Put(kv.Key, []byte{0xff, 0xfe, 0xfd})
	}
	err := s.Exec(`CREATE INDEX tag_ix ON things (tag)`)
	if err == nil {
		t.Fatal("CREATE INDEX over a corrupt record succeeded")
	}
	var ix *schema.Index
	for _, cand := range eng.Catalog().Indexes("things") {
		if !cand.Primary {
			ix = cand
		}
	}
	if st := eng.Catalog().IndexState(ix); st != schema.StateBuilding {
		t.Fatalf("failed build left state %v, want building", st)
	}
	// Repair and retry: the single-flight slot was released.
	cl.Put(rkey, value.EncodeRow(value.Row{value.Str("a"), value.Str("x")}))
	if err := s.Exec(`CREATE INDEX tag_ix ON things (tag)`); err != nil {
		t.Fatalf("retry after repair: %v", err)
	}
	if st := eng.Catalog().IndexState(ix); st != schema.StateReady {
		t.Fatalf("state after successful retry = %v, want ready", st)
	}
}
