package engine

import (
	"fmt"
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
// while another process runs CREATE INDEX. The builder used to skip the
// writer drain in simulated mode — blocking on the gate would deadlock
// the cooperative scheduler — so a writer still acting on a pre-index
// snapshot could insert a row the backfill scan had already passed.
// With the yield-based drain the builder waits the writers out in
// virtual time, and the ready index must cover every row, exactly as
// under real goroutines.
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

// TestCreateIndexRacingDeletesNoDangling proves the post-flip sweep: a
// delete racing the backfill scan can have its entry re-put after the
// row is gone, which previously dangled until a lazy GCDangling pass.
// ensureBuilt now sweeps suspects after the flip and confirms them under
// a writer drain, so once CREATE INDEX and the deleters finish, the
// index must mirror the records exactly — with no GC call here.
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
