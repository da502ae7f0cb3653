package piql

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"piql/internal/predict"
)

func exampleDB(t *testing.T) *DB {
	t.Helper()
	db := Open(Config{Nodes: 4})
	db.MustExec(`CREATE TABLE users (
		username VARCHAR(20), bio VARCHAR(140), PRIMARY KEY (username))`)
	db.MustExec(`CREATE TABLE follows (
		owner VARCHAR(20), target VARCHAR(20),
		PRIMARY KEY (owner, target),
		FOREIGN KEY (target) REFERENCES users,
		CARDINALITY LIMIT 50 (owner))`)
	for i := 0; i < 30; i++ {
		db.MustExec(`INSERT INTO users VALUES (?, ?)`,
			Str(fmt.Sprintf("u%02d", i)), Str("hello"))
	}
	for i := 1; i < 10; i++ {
		db.MustExec(`INSERT INTO follows VALUES ('u00', ?)`, Str(fmt.Sprintf("u%02d", i)))
	}
	return db
}

func TestPublicAPIBasics(t *testing.T) {
	db := exampleDB(t)
	q, err := db.Prepare(`SELECT username, bio FROM users WHERE username = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if q.OpBound() != 1 {
		t.Errorf("OpBound = %d", q.OpBound())
	}
	res, err := q.Execute(Str("u05"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "u05" || res.Names[1] != "bio" {
		t.Fatalf("res = %+v", res)
	}
	if !strings.Contains(q.Explain(), "PKLookup") {
		t.Errorf("Explain:\n%s", q.Explain())
	}
}

func TestPublicAPIJoin(t *testing.T) {
	db := exampleDB(t)
	res, err := db.Query(`
		SELECT u.username FROM follows f JOIN users u
		WHERE u.username = f.target AND f.owner = ?`, Str("u00"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestPublicAPIUnboundedRejection(t *testing.T) {
	db := exampleDB(t)
	_, err := db.Prepare(`SELECT * FROM users WHERE bio = 'hello'`)
	var ube *UnboundedQueryError
	if !errors.As(err, &ube) {
		t.Fatalf("err = %v", err)
	}
	if len(ube.Suggestions) == 0 || ube.Error() == "" {
		t.Fatalf("assistant feedback missing: %+v", ube)
	}
}

func TestPublicAPIPagination(t *testing.T) {
	db := exampleDB(t)
	q, err := db.Prepare(`SELECT username FROM users ORDER BY username PAGINATE 7`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := q.Paginate()
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	for !cur.Done() {
		// Round-trip through serialization every page.
		cur, err = db.RestoreCursor(cur.Serialize())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			break
		}
		for _, row := range res.Rows {
			seen = append(seen, row[0].S)
		}
	}
	if len(seen) != 30 {
		t.Fatalf("traversed %d users", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i-1] >= seen[i] {
			t.Fatalf("order broken at %d: %s >= %s", i, seen[i-1], seen[i])
		}
	}
}

func TestPublicAPIStrategies(t *testing.T) {
	db := exampleDB(t)
	for _, s := range []Strategy{LazyExecutor, SimpleExecutor, ParallelExecutor} {
		db.SetStrategy(s)
		res, err := db.Query(`SELECT target FROM follows WHERE owner = ?`, Str("u00"))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(res.Rows) != 9 {
			t.Fatalf("%v: rows = %d", s, len(res.Rows))
		}
	}
}

func TestPublicAPIWritePath(t *testing.T) {
	db := exampleDB(t)
	if err := db.Exec(`UPDATE users SET bio = 'updated' WHERE username = 'u01'`); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Query(`SELECT bio FROM users WHERE username = 'u01'`)
	if res.Rows[0][0].S != "updated" {
		t.Fatalf("bio = %v", res.Rows[0][0])
	}
	if err := db.Exec(`DELETE FROM users WHERE username = 'u01'`); err != nil {
		t.Fatal(err)
	}
	res, _ = db.Query(`SELECT bio FROM users WHERE username = 'u01'`)
	if len(res.Rows) != 0 {
		t.Fatal("row survived delete")
	}
	// Cardinality enforcement surfaces as an error on the 51st follow.
	for i := 0; i < 60; i++ {
		err := db.Exec(`INSERT INTO follows VALUES ('u02', ?)`, Str(fmt.Sprintf("t%02d", i)))
		if err != nil {
			if i == 50 && strings.Contains(err.Error(), "cardinality") {
				return
			}
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	t.Fatal("cardinality limit never enforced")
}

// TestPublicAPIConcurrentUse exercises the documented guarantee that one
// DB serves many goroutines: concurrent Query, shared-Query Execute, and
// point writes with per-goroutine keys, all against one handle. Run with
// -race this is the public API's concurrency proof.
func TestPublicAPIConcurrentUse(t *testing.T) {
	db := exampleDB(t)
	shared, err := db.Prepare(`SELECT target FROM follows WHERE owner = 'u00' LIMIT 50`)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := shared.Execute()
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 9 {
					errs <- fmt.Errorf("shared query returned %d rows, want 9", len(res.Rows))
					return
				}
				user := fmt.Sprintf("g%02d-%02d", g, i)
				if err := db.Exec(`INSERT INTO users VALUES (?, 'spawned')`, Str(user)); err != nil {
					errs <- err
					return
				}
				res, err = db.Query(`SELECT bio FROM users WHERE username = ?`, Str(user))
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].S != "spawned" {
					errs <- fmt.Errorf("read-own-write for %s failed: %v", user, res.Rows)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPooledResultsOutliveTheirSession: a Result stays what it was while
// its goroutine, and others, go on running statements on the pooled
// session it came from, which reuses its execution scratch for each. Under
// the race detector, a Result that pointed into a session's scratch would
// also be a data race between the goroutines the session passes through.
func TestPooledResultsOutliveTheirSession(t *testing.T) {
	const users = 16
	db := Open(Config{Nodes: 2})
	db.MustExec(`CREATE TABLE users (username VARCHAR(20), bio VARCHAR(140), PRIMARY KEY (username))`)
	db.MustExec(`CREATE TABLE follows (owner VARCHAR(20), target VARCHAR(20), PRIMARY KEY (owner, target),
		FOREIGN KEY (target) REFERENCES users, CARDINALITY LIMIT 50 (owner))`)
	name := func(i int) string { return fmt.Sprintf("u%02d", i%users) }
	for i := 0; i < users; i++ {
		db.MustExec(`INSERT INTO users VALUES (?, ?)`, Str(name(i)), Str("bio of "+name(i)))
	}
	for i := 0; i < users; i++ {
		db.MustExec(`INSERT INTO follows VALUES (?, ?)`, Str(name(i)), Str(name(i+1)))
		db.MustExec(`INSERT INTO follows VALUES (?, ?)`, Str(name(i)), Str(name(i+2)))
	}
	byName, err := db.Prepare(`SELECT username, bio FROM users WHERE username = ?`)
	if err != nil {
		t.Fatal(err)
	}
	friends, err := db.Prepare(`SELECT u.username, u.bio FROM follows f JOIN users u
		WHERE u.username = f.target AND f.owner = ?`)
	if err != nil {
		t.Fatal(err)
	}
	// want is the rows of user i alone, or of user i's friends in name
	// order.
	want := func(i int, alone bool) []Row {
		row := func(i int) Row { return Row{Str(name(i)), Str("bio of " + name(i))} }
		if alone {
			return []Row{row(i)}
		}
		if name(i+1) > name(i+2) {
			return []Row{row(i + 2), row(i + 1)}
		}
		return []Row{row(i + 1), row(i + 2)}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				me := g + i
				mine, err := byName.Execute(Str(name(me)))
				if err != nil {
					errs <- err
					return
				}
				theirs, err := friends.Execute(Str(name(me)))
				if err != nil {
					errs <- err
					return
				}
				for j := 1; j <= 3; j++ { // and on, on whichever sessions the pool hands out
					if _, err := friends.Execute(Str(name(me + j))); err != nil {
						errs <- err
						return
					}
				}
				if !slices.EqualFunc(mine.Rows, want(me, true), slices.Equal[Row]) ||
					!slices.EqualFunc(theirs.Rows, want(me, false), slices.Equal[Row]) {
					errs <- fmt.Errorf("%s's results changed under later runs: %v, %v", name(me), mine.Rows, theirs.Rows)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPublicAPIAdmissionControl(t *testing.T) {
	db := Open(Config{Nodes: 4, MaxOps: 60, Enforce: true})
	db.MustExec(`CREATE TABLE users (
		username VARCHAR(20), bio VARCHAR(140), PRIMARY KEY (username))`)
	db.MustExec(`CREATE TABLE follows (
		owner VARCHAR(20), target VARCHAR(20),
		PRIMARY KEY (owner, target),
		FOREIGN KEY (target) REFERENCES users,
		CARDINALITY LIMIT 50 (owner))`)

	// 1 point get: admitted, and the bound rides on the Query.
	q, err := db.Prepare(`SELECT * FROM users WHERE username = ?`)
	if err != nil {
		t.Fatal(err)
	}
	b := q.Bound()
	if b == nil || !b.Bounded || b.Ops != 1 {
		t.Fatalf("Bound() = %+v", b)
	}

	// Scan + 50 dereferences + residual budget: the follows fan-out is
	// 1 range read + 50 gets = 51 ops — admitted under 60, refused
	// under 10.
	fanout := `SELECT u.username FROM follows f JOIN users u
		WHERE u.username = f.target AND f.owner = ?`
	if _, err := db.Prepare(fanout); err != nil {
		t.Fatalf("fan-out query refused under MaxOps=60: %v", err)
	}

	strict := Open(Config{Nodes: 4, MaxOps: 10, Enforce: true})
	strict.MustExec(`CREATE TABLE follows (
		owner VARCHAR(20), target VARCHAR(20),
		PRIMARY KEY (owner, target),
		CARDINALITY LIMIT 50 (owner))`)
	_, err = strict.Prepare(`SELECT * FROM follows WHERE owner = ? LIMIT 50`)
	if err != nil {
		t.Fatalf("single range read should pass MaxOps=10: %v", err)
	}
	_, err = strict.Prepare(`SELECT * FROM follows WHERE owner IN (
		'a','b','c','d','e','f','g','h','i','j','k') AND target = 'x'`)
	var over *ErrOverSLO
	if !errors.As(err, &over) {
		t.Fatalf("err = %v, want *ErrOverSLO", err)
	}
	if over.MaxOps != 10 {
		t.Fatalf("refusal = %+v", over)
	}
}

// TestUseSLOModelRacingPrepare installs an SLO model while other
// goroutines Prepare, and checks that admission then prices plans with
// that model. Prepare reads the admission policy with no lock, so
// UseSLOModel must publish a new policy rather than write the model
// into the one being read: run under -race, an in-place write is a data
// race here.
func TestUseSLOModelRacingPrepare(t *testing.T) {
	m, err := predict.Train(predict.TrainConfig{
		Nodes: 2, ReplicationFactor: 2, Seed: 1,
		Intervals: 2, IntervalLength: time.Second, RepsPerInterval: 2,
		Alphas: []int{1, 10}, AlphaJs: []int{1}, Betas: []int{40},
	})
	if err != nil {
		t.Fatal(err)
	}
	model := &SLOModel{model: m}
	// An SLO no prediction can meet: once the model is installed, every
	// Prepare is refused with the model's own prediction.
	db := Open(Config{Nodes: 2, Enforce: true, SLO: time.Nanosecond, MaxOps: 100})
	db.MustExec(`CREATE TABLE users (username VARCHAR(20), bio VARCHAR(140), PRIMARY KEY (username))`)
	const sql = `SELECT * FROM users WHERE username = ?`
	q, err := db.Prepare(sql) // no model yet: the latency check is off
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	var ready, done sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			for i := 0; i < 10000 && !stop.Load(); i++ {
				_, err := db.Prepare(sql)
				if i == 0 {
					ready.Done()
				}
				var over *ErrOverSLO
				if err != nil && !errors.As(err, &over) {
					errs <- err
					break
				}
			}
		}()
	}
	ready.Wait()
	db.UseSLOModel(model)
	stop.Store(true)
	done.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	p := db.eng.Admission()
	if p.Model != m || !p.Enforce || p.SLO != time.Nanosecond || p.MaxOps != 100 {
		t.Fatalf("admission policy after UseSLOModel = %+v, want the Open policy with the installed model", p)
	}
	want, err := model.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Prepare(sql)
	var over *ErrOverSLO
	if !errors.As(err, &over) {
		t.Fatalf("Prepare after UseSLOModel: err = %v, want *ErrOverSLO", err)
	}
	if got := want.pred.Quantile99(0.9); over.Predicted != got || got <= 0 {
		t.Fatalf("refusal predicted %v, the installed model predicts %v", over.Predicted, got)
	}
}

// findUserQuery loads 1000 users on an immediate-mode cluster and
// prepares the Class I point query over them.
func findUserQuery(t *testing.T) *Query {
	db := Open(Config{Nodes: 4})
	db.MustExec(`CREATE TABLE users (username VARCHAR(20), bio VARCHAR(140), PRIMARY KEY (username))`)
	for i := 0; i < 1000; i++ {
		db.MustExec(`INSERT INTO users VALUES (?, 'hi')`, Str(fmt.Sprintf("u%04d", i)))
	}
	q, err := db.Prepare(`SELECT * FROM users WHERE username = ?`)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestExecuteFindUserAllocs pins the point lookup's deterministic
// number: one execution through the public API, parameter formatting
// included, is exactly 6 allocations (bench/ times the same path as
// exec.run_us.pk_lookup), none of them for the row's strings, which
// point into the store's records, nor for the key or the store's
// result, which reuse a pooled session's buffers. An exact pin, so a
// saving shows as a failure too and moves the number down. Not under
// the race detector, whose instrumentation allocates on its own account.
func TestExecuteFindUserAllocs(t *testing.T) {
	if raceDetector() {
		t.Skip("allocation counts differ under -race")
	}
	q := findUserQuery(t)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := q.Execute(Str(fmt.Sprintf("u%04d", i%1000))); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 6 {
		t.Fatalf("FindUser: %v allocs per execution, pinned at 6", allocs)
	}
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	info, _ := debug.ReadBuildInfo()
	return info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestNegativeZeroIsZero: value.Equal has always called -0.0 and 0.0
// equal; their keys were not, so an equality on a DOUBLE column found
// only the rows spelled like the parameter and a DOUBLE primary key held
// both. Float stores one zero.
func TestNegativeZeroIsZero(t *testing.T) {
	negZero := Float(math.Copysign(0, -1))
	db := Open(Config{Nodes: 2})
	db.MustExec(`CREATE TABLE readings (
		id INT, temp DOUBLE, PRIMARY KEY (id), CARDINALITY LIMIT 10 (temp))`)
	db.MustExec(`INSERT INTO readings VALUES (1, ?)`, negZero)
	db.MustExec(`INSERT INTO readings VALUES (2, ?)`, Float(0))
	db.MustExec(`INSERT INTO readings VALUES (3, ?)`, Float(1))
	for _, param := range []Value{Float(0), negZero} {
		res, err := db.Query(`SELECT id FROM readings WHERE temp = ?`, param)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 {
			t.Errorf("WHERE temp = %v (sign bit %v): %d rows %v, want ids 1 and 2",
				param, math.Signbit(param.Float()), len(res.Rows), res.Rows)
		}
	}

	db.MustExec(`CREATE TABLE marks (at DOUBLE, note VARCHAR(10), PRIMARY KEY (at))`)
	db.MustExec(`INSERT INTO marks VALUES (?, 'first')`, negZero)
	if err := db.Exec(`INSERT INTO marks VALUES (?, 'second')`, Float(0)); err == nil {
		t.Error("a DOUBLE primary key admitted 0.0 beside -0.0")
	}
	res, err := db.Query(`SELECT note FROM marks WHERE at = ?`, Float(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "first" {
		t.Errorf("marks WHERE at = 0.0: %v, want the one row inserted as -0.0", res.Rows)
	}
}
