package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"piql/internal/core"
	"piql/internal/exec"
	"piql/internal/index"
	"piql/internal/value"
)

// A session runs every statement through one reusable exec.Ctx, whose
// scratch holds the keys an execution sends and what the store returns.
// These tests hold the two sides of that: a warm execution pays nothing
// for its request side, and nothing a Result holds is the scratch's.

// warmFixture is newRoundTripFixture plus a hometown of one user and an
// owner with one subscription, so that every shape below can be run on
// fewer and on more entries (or streams). Owners d2 and d3 follow two and
// three of the authors v01–v03, each of 12 articles, and the newest
// article of v01 dangles: its index entry outlives its record, so a
// sorted join's page of 10 loses it and takes a second round.
func warmFixture(t *testing.T) *Session {
	t.Helper()
	s := newRoundTripFixture(t)
	for _, stmt := range []string{
		`INSERT INTO users VALUES ('u06', 'h2', 'hi')`,
		`INSERT INTO subscriptions VALUES ('w1', 'u04', true)`,
	} {
		if err := s.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v <= 3; v++ {
		author := value.Str(fmt.Sprintf("v%02d", v))
		if err := s.Exec(`INSERT INTO users VALUES (?, 'h3', 'hi')`, author); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			id := value.Str(fmt.Sprintf("a-%s-%02d", author.S, i))
			if err := s.Exec(`INSERT INTO articles VALUES (?, ?, ?, 'title')`, id, author, value.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		owners := []string{"d2", "d3"}
		if v == 3 {
			owners = owners[1:] // d2 follows two authors, d3 all three
		}
		for _, owner := range owners {
			if err := s.Exec(`INSERT INTO subscriptions VALUES (?, ?, true)`, value.Str(owner), author); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The index is built by the first Prepare that needs it, from the
	// records then stored: build it before the record goes.
	if _, err := s.Prepare(articlesByFollowed); err != nil {
		t.Fatal(err)
	}
	articles := s.eng.Catalog().Table("articles")
	if err := s.Client().Delete(index.RecordKeyFromPK(articles, value.Row{value.Str("a-v01-11")})); err != nil {
		t.Fatal(err)
	}
	return s
}

// articlesByFollowed is a page of the articles of the authors an owner
// follows: a sorted join through a secondary index.
const articlesByFollowed = `SELECT a.* FROM subscriptions s JOIN articles a
	WHERE a.author = s.target AND s.owner = ? ORDER BY a.ts DESC LIMIT 10`

// warmAllocs returns the exact mean number of heap allocations of runs
// calls of f, after a few calls that warm it. testing.AllocsPerRun rounds
// the mean down, which hides an allocation made once every few calls (a
// buffer that keeps growing because nothing truncates it); this does
// not, and it keeps the collector off, whose cycles allocate on their own
// account.
func warmAllocs(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 5; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestWarmExecuteAllocations pins what one Prepared.Execute allocates on
// a warm session, per plan shape: each operator's string arena (a sorted
// join's, one a round), the answer (the root's row headers and slab), an
// aggregate's groups, and the Result — its keys, the store's results, the
// intermediate row headers, a sorted join's candidates and the values
// every remote operator decodes come from the session's scratch.
// Each shape runs on fewer and on more entries, or child rows, or
// streams, and costs the same on both: nothing is paid per key, per entry
// or per stream.
//
// Each shape runs under the Lazy strategy too, which reads a set tuple at
// a time (lazily) and pays one allocation more per ascending range it
// walks, the buffer of the successor key the next tuple starts at: a
// scan's, a join's child scan's, and one per stream of a sorted join
// whose streams ascend, so that shape's Lazy count grows with its
// streams. A descending range walks by its End and pays nothing.
func TestWarmExecuteAllocations(t *testing.T) {
	s := warmFixture(t)
	str := value.Str
	few, more := []value.Value{str("w1")}, []value.Value{str("u00")} // 1 and 3 subscriptions
	for _, tc := range []struct {
		name, sql string
		shape     func(ops []core.Physical) bool
		fewer     []value.Value // params that fetch fewer entries
		more      []value.Value // than these
		want      float64
		lazy      [2]float64 // under Lazy, on fewer and on more
	}{
		{"pk lookup", `SELECT * FROM users WHERE username IN (?, ?, ?)`,
			func(ops []core.Physical) bool { _, ok := ops[0].(*core.PKLookup); return ok },
			[]value.Value{str("u01"), str("u01"), str("u01")}, []value.Value{str("u01"), str("u02"), str("u03")}, 4, [2]float64{4, 4}},
		{"primary index scan", `SELECT * FROM thoughts WHERE owner = ? AND timestamp < ? ORDER BY timestamp LIMIT 10`,
			func(ops []core.Physical) bool { sc, ok := ops[0].(*core.IndexScan); return ok && sc.Index.Primary },
			[]value.Value{str("u01"), value.Int(2)}, []value.Value{str("u01"), value.Int(12)}, 4, [2]float64{5, 5}},
		{"dereferencing index scan", `SELECT * FROM users WHERE hometown = ?`,
			func(ops []core.Physical) bool { sc, ok := ops[0].(*core.IndexScan); return ok && sc.NeedDeref },
			[]value.Value{str("h2")}, []value.Value{str("h0")}, 4, [2]float64{5, 5}},
		{"fk join", `SELECT u.username, u.bio FROM subscriptions s JOIN users u WHERE u.username = s.target AND s.owner = ?`,
			func(ops []core.Physical) bool { _, ok := ops[1].(*core.IndexFKJoin); return ok },
			few, more, 5, [2]float64{6, 6}},
		{"primary sorted join", `SELECT thoughts.* FROM subscriptions s JOIN thoughts
			WHERE thoughts.owner = s.target AND s.owner = ? AND s.approved = true ORDER BY thoughts.timestamp DESC LIMIT 10`,
			func(ops []core.Physical) bool { j, ok := ops[1].(*core.SortedIndexJoin); return ok && j.Index.Primary },
			few, more, 5, [2]float64{6, 6}},
		{"secondary sorted join", articlesByFollowed,
			func(ops []core.Physical) bool { j, ok := ops[1].(*core.SortedIndexJoin); return ok && !j.Index.Primary },
			few, more, 5, [2]float64{7, 9}},
		// The page of 10 loses v01's dangling newest article, so a second
		// dereference round takes every other entry fetched: 10 of 2
		// streams, 20 of 3. The candidate batch has room for all of them
		// from the first round on, and each round carves its values from
		// the scratch; the second round pays its string arena alone, like
		// any round.
		{"secondary sorted join, two rounds", articlesByFollowed,
			func(ops []core.Physical) bool { j, ok := ops[1].(*core.SortedIndexJoin); return ok && j.Stop == 10 },
			[]value.Value{str("d2")}, []value.Value{str("d3")}, 6, [2]float64{9, 10}},
		{"aggregate", `SELECT COUNT(*), MAX(target) FROM subscriptions WHERE owner = ?`,
			func(ops []core.Physical) bool { _, ok := ops[0].(*core.IndexScan); return ok },
			few, more, 13, [2]float64{14, 14}},
	} {
		p, err := s.Prepare(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.shape(p.Plan().RemoteOps()) {
			t.Fatalf("%s: not the shape under test:\n%s", tc.name, p.Plan().Explain())
		}
		fewer, more := executeAllocs(t, s, p, tc.fewer), executeAllocs(t, s, p, tc.more)
		if fewer != tc.want || more != tc.want {
			t.Errorf("%s: %v allocs on the smaller input, %v on the larger; pinned at %v for both", tc.name, fewer, more, tc.want)
		}
		s.SetStrategy(exec.Lazy)
		if lazy := [2]float64{executeAllocs(t, s, p, tc.fewer), executeAllocs(t, s, p, tc.more)}; lazy != tc.lazy {
			t.Errorf("%s under Lazy: %v allocs on the smaller input, %v on the larger; pinned at %v", tc.name, lazy[0], lazy[1], tc.lazy)
		}
		s.SetStrategy(exec.Parallel)
	}

	// A resumed page of a paginated primary scan carves the key it starts
	// past from the scratch too: the second page reads 5 entries, the
	// third 2, and each costs an executed scan's 4 and its cursor.
	pages, err := s.Prepare(`SELECT * FROM thoughts WHERE owner = ? ORDER BY timestamp PAGINATE 5`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pages.Paginate(str("u01"))
	if err != nil {
		t.Fatal(err)
	}
	var after [2][]byte // where the second and the third page resume
	for i := range after {
		if _, err := c.Next(s); err != nil {
			t.Fatal(err)
		}
		after[i] = c.resume
	}
	next := func(c *Cursor, at []byte, rows int) float64 {
		return warmAllocs(100, func() {
			c.resume, c.done = at, false
			if res, err := c.Next(s); err != nil || len(res.Rows) != rows {
				t.Fatalf("a resumed page: %v, %v; want %d rows", res, err, rows)
			}
		})
	}
	if fewer, more := next(c, after[1], 2), next(c, after[0], 5); fewer != 5 || more != 5 {
		t.Errorf("Cursor.Next: %v allocs on the third page, %v on the second; pinned at 5 for both", fewer, more)
	}

	// A resumed page of a paginated sorted join pays per stream, 5
	// allocations a stream on top of the page's 13: the stream's name and
	// position decoded from the resume (decodeStreamResume, 2), its name
	// in the cursor (streamKey), its prefix as a key of resumeStreams'
	// count, and the growth of the next resume's buffer
	// (encodeStreamResume).
	joinPages, err := s.Prepare(strings.Replace(articlesByFollowed, "LIMIT 10", "PAGINATE 4", 1))
	if err != nil {
		t.Fatal(err)
	}
	second := func(owner string) float64 {
		c, err := joinPages.Paginate(str(owner))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Next(s); err != nil {
			t.Fatal(err)
		}
		return next(c, c.resume, 4)
	}
	if two, three := second("d2"), second("d3"); two != 23 || three != 28 {
		t.Errorf("Cursor.Next of a sorted join: %v allocs at 2 streams, %v at 3; pinned at 23 and 28", two, three)
	}

	// The covering scan is the cost-based baseline's, and unbounded: it
	// reads into buffers of its own run (TestUnboundedPlanLeavesScratch in
	// internal/exec), so its store result grows with the section it reads.
	p, err := s.PrepareCostBased(`SELECT username FROM users WHERE hometown = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if sc, ok := p.Plan().RemoteOps()[0].(*core.IndexScan); !ok || sc.NeedDeref || !sc.Unbounded {
		t.Fatalf("covering index scan: not the shape under test:\n%s", p.Plan().Explain())
	}
	if one, three := executeAllocs(t, s, p, []value.Value{str("h2")}), executeAllocs(t, s, p, []value.Value{str("h0")}); one != 12 || three != 24 {
		t.Errorf("covering index scan: %v allocs at 1 entry, %v at 3; pinned at 12 and 24", one, three)
	}
}

// executeAllocs is warmAllocs of p.Execute(s, params...).
func executeAllocs(t *testing.T, s *Session, p *Prepared, params []value.Value) float64 {
	t.Helper()
	return warmAllocs(100, func() {
		if _, err := p.Execute(s, params...); err != nil {
			t.Fatalf("%s: %v", p.SQL(), err)
		}
	})
}

// frozen is a deep copy of a Result: its rows' values, strings included,
// and its resume position.
type frozen struct {
	rows   []value.Row
	resume []byte
	more   bool
}

func freeze(res *exec.Result) frozen {
	f := frozen{resume: bytes.Clone(res.Resume), more: res.More}
	for _, row := range res.Rows {
		cp := make(value.Row, len(row))
		for i, v := range row {
			cp[i] = v
			cp[i].S = strings.Clone(v.S)
		}
		f.rows = append(f.rows, cp)
	}
	return f
}

// TestResultOutlivesNextRun: a Result stays what it was after its session
// runs again — the same statement with other parameters, other shapes and
// the next pages of cursors — so no row, string or resume position of it
// lies in the scratch the session reuses.
func TestResultOutlivesNextRun(t *testing.T) {
	s := warmFixture(t)
	prepare := func(sql string) *Prepared {
		p, err := s.Prepare(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return p
	}
	stream := prepare(`SELECT thoughts.* FROM subscriptions s JOIN thoughts
		WHERE thoughts.owner = s.target AND s.owner = ? AND s.approved = true ORDER BY thoughts.timestamp DESC LIMIT 10`)
	byHome := prepare(`SELECT * FROM users WHERE hometown = ?`)
	// An aggregate's input is the dereference's rows, whose values lie in
	// the scratch; its answer must not.
	homeRange := prepare(`SELECT MIN(username), MAX(bio) FROM users WHERE hometown = ?`)
	lookup := prepare(`SELECT * FROM users WHERE username IN (?, ?)`)
	friends := prepare(`SELECT u.username, u.bio FROM subscriptions s JOIN users u WHERE u.username = s.target AND s.owner = ?`)
	scanPages := prepare(`SELECT * FROM thoughts WHERE owner = ? ORDER BY timestamp PAGINATE 4`)
	joinPages := prepare(`SELECT a.* FROM subscriptions s JOIN articles a
		WHERE a.author = s.target AND s.owner = ? ORDER BY a.ts DESC PAGINATE 4`)

	type held struct {
		what string
		res  *exec.Result
		was  frozen
	}
	var results []held
	keep := func(what string, res *exec.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows", what)
		}
		// The fixture stores no NULL, so a NULL here is a cell the session
		// cleared under the Result: Run clears what it carved as it returns.
		for _, row := range res.Rows {
			for _, v := range row {
				if v.IsNull() {
					t.Fatalf("%s: row %v holds a NULL", what, row)
				}
			}
		}
		results = append(results, held{what, res, freeze(res)})
	}
	cursor := func(p *Prepared, owner string) *Cursor {
		c, err := p.Paginate(value.Str(owner))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	scanCur, joinCur := cursor(scanPages, "u01"), cursor(joinPages, "u00")
	for round, owner := range []string{"u00", "w1"} {
		res, err := stream.Execute(s, value.Str(owner))
		keep("thoughtstream("+owner+")", res, err)
		res, err = byHome.Execute(s, value.Str([]string{"h0", "h1"}[round]))
		keep("users by hometown", res, err)
		res, err = homeRange.Execute(s, value.Str([]string{"h0", "h1"}[round]))
		keep("an aggregate over users by hometown", res, err)
		res, err = lookup.Execute(s, value.Str([]string{"u01", "u04"}[round]), value.Str([]string{"u02", "u05"}[round]))
		keep("users by name", res, err)
		res, err = friends.Execute(s, value.Str(owner))
		keep("friends("+owner+")", res, err)
		res, err = scanCur.Next(s)
		keep("a scan's page", res, err)
		res, err = joinCur.Next(s)
		keep("a sorted join's page", res, err)
	}
	for _, h := range results[:len(results)-2] {
		if h.was.more && h.was.resume == nil {
			t.Fatalf("%s: a page with more to come has no resume position", h.what)
		}
	}
	for _, h := range results {
		if now := freeze(h.res); !reflect.DeepEqual(now, h.was) {
			t.Errorf("%s changed after the session ran on:\nwas %v\nnow %v", h.what, h.was, now)
		}
	}
}

// TestScratchKeepsNoArenaAlive: once a session's run returns, nothing
// the session keeps points at that run's strings. Each statement runs on
// more entries, its Result is dropped, and it runs again on fewer: a
// string of the first Result, and with it the string arena it lies in,
// must then be unreachable, though the session — which may sit idle in
// piql.DB's pool for as long as it likes — still holds the scratch the
// first run carved its rows from. The narrower run rewrites fewer cells
// and row headers than the first one carved.
func TestScratchKeepsNoArenaAlive(t *testing.T) {
	s := warmFixture(t)
	str := value.Str
	for _, tc := range []struct {
		name, sql   string
		more, fewer []value.Value
	}{
		{"pk lookup", `SELECT * FROM users WHERE username IN (?, ?, ?)`,
			[]value.Value{str("u01"), str("u02"), str("u03")}, []value.Value{str("u01"), str("u01"), str("u01")}},
		{"range scan page", `SELECT * FROM thoughts WHERE owner = ? AND timestamp < ? ORDER BY timestamp LIMIT 10`,
			[]value.Value{str("u01"), value.Int(12)}, []value.Value{str("u01"), value.Int(2)}},
		{"sorted join page", articlesByFollowed, []value.Value{str("d3")}, []value.Value{str("w1")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := s.Prepare(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			// The last string of the last row: a run's strings lie in arenas
			// of that run alone, so it is reachable only from the Result and
			// from whatever the session kept.
			last := func(params []value.Value) weak.Pointer[byte] {
				res, err := p.Execute(s, params...)
				if err != nil || len(res.Rows) == 0 {
					t.Fatalf("%v: %v, %v", params, res, err)
				}
				row := res.Rows[len(res.Rows)-1]
				for i := len(row) - 1; i >= 0; i-- {
					if len(row[i].S) > 0 {
						return weak.Make(unsafe.StringData(row[i].S))
					}
				}
				t.Fatalf("%v: the last row %v holds no string", params, row)
				return weak.Pointer[byte]{}
			}
			last(tc.more) // warms the scratch to the wider run's size
			wide := last(tc.more)
			last(tc.fewer)
			for i := 0; i < 3; i++ {
				runtime.GC()
			}
			if wide.Value() != nil {
				t.Errorf("a string of the run on more entries is still reachable after a run on fewer")
			}
		})
	}

	// A run carves its values more than once, a sorted join's child scan
	// and then each round, and take may replace the array between two
	// carves. The replaced array keeps the child's cells, and so its
	// strings, and only the row headers and the streams still point into
	// it. A fresh session whose first statement warmed its row headers but
	// not its values replaces the values in the join's first round. The
	// string checked is each answer's first: the join's is s.target, a
	// string of its child scan.
	t.Run("a sorted join that regrows the values", func(t *testing.T) {
		fresh := s.eng.Session(nil)
		for _, st := range []struct {
			what, sql, param string
		}{
			{"the scan", `SELECT * FROM thoughts WHERE owner = ? ORDER BY timestamp LIMIT 20`, "u01"},
			{"the join", `SELECT s.target, a.* FROM subscriptions s JOIN articles a
				WHERE a.author = s.target AND s.owner = ? ORDER BY a.ts DESC LIMIT 10`, "d3"},
		} {
			p, err := fresh.Prepare(st.sql)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Execute(fresh, value.Str(st.param))
			if err != nil || len(res.Rows) == 0 {
				t.Fatalf("%s: %v, %v", st.what, res, err)
			}
			first := weak.Make(unsafe.StringData(res.Rows[0][0].S))
			res = nil
			for i := 0; i < 3; i++ {
				runtime.GC()
			}
			if first.Value() != nil {
				t.Errorf("%s: the first string of its answer is still reachable from the idle session", st.what)
			}
		}
		runtime.KeepAlive(fresh)
	})
}

// TestRecordOfWrongArityIsRefused: a stored record holds exactly its
// table's values, or the statement that reads it fails as corrupt. A
// short one used to come back padded with NULLs, and with a reused slab
// would come back with an earlier run's cells; a long one spilled its
// extra value into the cells of the table joined after it. Each
// statement runs once on the intact record first, so the failing run is
// a warm one.
func TestRecordOfWrongArityIsRefused(t *testing.T) {
	str := value.Str
	const friends = `SELECT u.username, u.bio FROM subscriptions s JOIN users u WHERE u.username = s.target AND s.owner = ?`
	for _, tc := range []struct {
		name, table string
		rec         value.Row // stored under its own primary key
		sql         string
		param       string
	}{
		{"short record, primary-key lookup", "users", value.Row{str("u01"), str("h0")},
			`SELECT * FROM users WHERE username = ?`, "u01"},
		{"short record, foreign-key join", "users", value.Row{str("u01"), str("h0")}, friends, "u00"},
		{"long record, a join's child scan", "subscriptions", value.Row{str("u00"), str("u01"), value.Bool(true), str("spill")},
			friends, "u00"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newRoundTripFixture(t)
			p, err := s.Prepare(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Execute(s, str(tc.param)); err != nil {
				t.Fatalf("on the intact record: %v", err)
			}
			table := s.eng.Catalog().Table(tc.table)
			if err := s.Client().Put(index.RecordKey(table, tc.rec), value.EncodeRow(tc.rec)); err != nil {
				t.Fatal(err)
			}
			res, err := p.Execute(s, str(tc.param))
			if err == nil || !strings.Contains(err.Error(), "exec: corrupt record") {
				var rows []value.Row
				if res != nil {
					rows = res.Rows
				}
				t.Fatalf("a %s record of %d values: rows %v, error %v; want a corrupt record", tc.table, len(tc.rec), rows, err)
			}
		})
	}
}
