package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"piql/internal/core"
	"piql/internal/kvstore"
	"piql/internal/parser"
	"piql/internal/sim"
	"piql/internal/value"
)

// TestConcurrentSessions hammers one engine from many goroutines — each
// with its own session — mixing cached and cold Prepares, query
// execution, point writes, and concurrent DDL (CREATE TABLE / CREATE
// INDEX racing the read path). Run under -race it is the engine's
// concurrency proof; the assertions check that results stay correct and
// that every execution respects its plan's static op bound.
func TestConcurrentSessions(t *testing.T) {
	eng, loader := newTestEngine(t, 4)
	loadSCADr(t, loader, 40, 5, 8)

	const goroutines = 16
	const iterations = 30
	const updateThought = `UPDATE thoughts SET text = ? WHERE owner = ? AND timestamp = ?`
	const deleteThought = `DELETE FROM thoughts WHERE owner = ? AND timestamp = ?`
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := eng.Session(nil)
			fail := func(format string, args ...any) {
				select {
				case errs <- fmt.Errorf(format, args...):
				default:
				}
			}
			for i := 0; i < iterations; i++ {
				// Cold Prepare every few iterations: distinct LIMIT text
				// defeats the plan cache, so the compiler (a catalog
				// writer) runs concurrently with everything else.
				limit := 2 + (g*iterations+i)%7
				sql := fmt.Sprintf(`SELECT * FROM thoughts WHERE owner = ? ORDER BY timestamp DESC LIMIT %d`, limit)
				p, err := s.Prepare(sql)
				if err != nil {
					fail("prepare: %v", err)
					return
				}
				owner := value.Str(fmt.Sprintf("user%03d", (g+i)%40))
				s.Client().ResetOps()
				res, err := p.Execute(s, owner)
				if err != nil {
					fail("execute: %v", err)
					return
				}
				if got := s.Client().Ops(); got > int64(p.Plan().OpBound()) {
					fail("execution used %d ops, plan bound is %d", got, p.Plan().OpBound())
					return
				}
				if len(res.Rows) == 0 || len(res.Rows) > limit {
					fail("thoughts query returned %d rows, want 1..%d", len(res.Rows), limit)
					return
				}
				// Point write with a per-goroutine key: never conflicts.
				ts := int64(100_000 + g*10_000 + i)
				if err := s.Exec(`INSERT INTO thoughts VALUES (?, ?, ?)`,
					owner, value.Int(ts), value.Str("concurrent thought")); err != nil {
					fail("insert: %v", err)
					return
				}
				// The same UPDATE and DELETE texts from every session, first
				// seen while all of them run: racing binds keep one binding
				// and every session's writes go through it.
				if err := s.Exec(updateThought, value.Str(fmt.Sprintf("thought %d of writer %d", i, g)), owner, value.Int(ts)); err != nil {
					fail("update: %v", err)
					return
				}
				if i%2 == 1 {
					if err := s.Exec(deleteThought, owner, value.Int(ts)); err != nil {
						fail("delete: %v", err)
						return
					}
				}
				// Concurrent DDL: every goroutine creates its own table
				// once, and all goroutines race the same CREATE INDEX
				// (the single-flight backfill must build it exactly once).
				if i == 0 {
					ddl := fmt.Sprintf(`CREATE TABLE scratch_%d (k VARCHAR(10), PRIMARY KEY (k))`, g)
					if err := s.Exec(ddl); err != nil {
						fail("create table: %v", err)
						return
					}
					if err := s.Exec(`CREATE INDEX town ON users (hometown)`); err != nil {
						fail("create index: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every racing CREATE INDEX deduplicated to one canonical index.
	town := 0
	for _, ix := range eng.Catalog().Indexes("users") {
		if !ix.Primary {
			town++
		}
	}
	if town != 1 {
		t.Fatalf("expected exactly 1 secondary index on users after racing DDL, got %d", town)
	}
	// And the backfilled index serves correct results.
	s := eng.Session(nil)
	p, err := s.Prepare(`SELECT username FROM users WHERE hometown = ? LIMIT 50`)
	if err != nil {
		t.Fatalf("prepare via new index: %v", err)
	}
	res, err := p.Execute(s, value.Str("Berkeley"))
	if err != nil {
		t.Fatalf("execute via new index: %v", err)
	}
	if len(res.Rows) != 40 {
		t.Fatalf("hometown index query returned %d rows, want 40", len(res.Rows))
	}
	// Every writer's rows are as its last statement left them, and each
	// DML text has one binding: the loader's three INSERTs and the two
	// above.
	written, err := s.Prepare(`SELECT text FROM thoughts WHERE owner = ? AND timestamp = ?`)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < iterations; i++ {
			res, err := written.Execute(s, value.Str(fmt.Sprintf("user%03d", (g+i)%40)), value.Int(int64(100_000+g*10_000+i)))
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf(`[("thought %d of writer %d")]`, i, g)
			if i%2 == 1 {
				want = "[]"
			}
			if got := fmt.Sprint(res.Rows); got != want {
				t.Fatalf("writer %d, thought %d: %s, want %s", g, i, got, want)
			}
		}
	}
	if n := len(eng.writes); n != 5 {
		t.Errorf("%d bound writes cached, want one per DML text (5)", n)
	}
	// All goroutine-private tables registered despite racing CoW writers.
	for g := 0; g < goroutines; g++ {
		if eng.Catalog().Table(fmt.Sprintf("scratch_%d", g)) == nil {
			t.Fatalf("table scratch_%d lost in a racing catalog update", g)
		}
	}
}

// TestSimulatedSessionsColdPrepareSameIndex: two virtual-time processes
// cold-Prepare the same SQL needing a new secondary index. The first
// parks mid-backfill on simulated store latency; the second must wait
// for that single-flight build without blocking (it holds the sim
// scheduler's only token, so a blocked waiter would leave the builder
// unable to resume), and both must read the built index.
func TestSimulatedSessionsColdPrepareSameIndex(t *testing.T) {
	env := sim.NewEnv()
	cluster := kvstore.New(kvstore.Config{Nodes: 2, ReplicationFactor: 2, Seed: 7}, env)
	eng := New(cluster)
	loader := eng.Session(nil)
	if err := loader.Exec(`CREATE TABLE users (username VARCHAR(20), hometown VARCHAR(30), PRIMARY KEY (username))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := loader.Exec(`INSERT INTO users VALUES (?, 'Berkeley')`,
			value.Str(fmt.Sprintf("user%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	const sql = `SELECT username FROM users WHERE hometown = ? LIMIT 50`
	var errs [2]error
	var rows [2]int
	for g := 0; g < 2; g++ {
		g := g
		env.Spawn(func(p *sim.Proc) {
			s := eng.Session(p)
			pre, err := s.Prepare(sql)
			if err != nil {
				errs[g] = err
				return
			}
			res, err := pre.Execute(s, value.Str("Berkeley"))
			if err != nil {
				errs[g] = err
				return
			}
			rows[g] = len(res.Rows)
		})
	}
	env.Run(0) // would hang forever on the deadlock
	env.Stop()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", g, err)
		}
		if rows[g] != 50 {
			t.Fatalf("proc %d saw %d rows via the new index, want 50", g, rows[g])
		}
	}
}

// TestLostRegistrationRecompiles plays a lost registration in order:
// one session compiles a statement that asks for a new index, a second
// registers and builds its own copy of that index first. Registering the
// first plan's copy reports the loss and publishes nothing — the write
// path maintains the winner's — and the first session's Prepare, which
// compiles on the newer snapshot, reads the catalog's index.
func TestLostRegistrationRecompiles(t *testing.T) {
	eng, s1 := newTestEngine(t, 2)
	loadSCADr(t, s1, 7, 0, 0) // seven users, all of Berkeley
	const sql = `SELECT username FROM users WHERE hometown = [1: h] LIMIT 10`
	stmt, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	loser, err := core.Compile(eng.Catalog(), stmt.(*parser.Select))
	if err != nil {
		t.Fatal(err)
	}

	// The same index under another text, so the Prepare below is cold.
	if _, err := eng.Session(nil).Prepare(`SELECT username FROM users WHERE hometown = [1: h] LIMIT 5`); err != nil {
		t.Fatal(err)
	}
	published := eng.Catalog()
	if won, err := eng.register(loser.RequiredIndexes); won || err != nil {
		t.Fatalf("register after another session took the signature: won=%v err=%v, want a reported loss", won, err)
	}
	if eng.Catalog() != published {
		t.Error("a lost registration published a catalog")
	}

	p, err := s1.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Plan().RequiredIndexes) != 1 || p.Plan().RequiredIndexes[0] == loser.RequiredIndexes[0] {
		t.Fatalf("the prepared plan reads %v, want the registered copy", p.Plan().RequiredIndexes)
	}
	for _, ix := range p.Plan().RequiredIndexes {
		if !slices.Contains(eng.Catalog().Indexes(ix.Table), ix) {
			t.Errorf("the plan reads a copy of %s that the catalog does not hold", ix)
		}
	}
	res, err := p.Execute(s1, value.Str("Berkeley"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Errorf("%d rows, want 7", len(res.Rows))
	}
}

// TestColdPreparesRaceForOneIndex is the same loss with real goroutines:
// sessions released together each prepare a first-seen text that asks
// for the same new index, so all but one of them lose the registration
// (about one round in five on two CPUs) and go round prepare's loop.
// Whoever won, every plan reads the catalog's copy and the right rows.
func TestColdPreparesRaceForOneIndex(t *testing.T) {
	for round := 0; round < 50; round++ {
		eng, s0 := newTestEngine(t, 2)
		loadSCADr(t, s0, 3, 0, 0)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := eng.Session(nil)
				<-start
				p, err := s.Prepare(fmt.Sprintf(`SELECT username FROM users WHERE hometown = [1: h] LIMIT %d`, 5+g))
				if err != nil {
					t.Error(err)
					return
				}
				for _, ix := range p.Plan().RequiredIndexes {
					if !slices.Contains(eng.Catalog().Indexes(ix.Table), ix) {
						t.Errorf("session %d reads a copy of %s that the catalog does not hold", g, ix)
					}
				}
				res, err := p.Execute(s, value.Str("Berkeley"))
				if err != nil {
					t.Error(err)
				} else if len(res.Rows) != 3 {
					t.Errorf("session %d: %d rows, want 3", g, len(res.Rows))
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}
