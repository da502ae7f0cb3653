package engine

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"piql/internal/core"
	"piql/internal/exec"
	"piql/internal/value"
)

// A session runs every statement through one reusable exec.Ctx, whose
// scratch holds the keys an execution sends and what the store returns.
// These tests hold the two sides of that: a warm execution pays nothing
// for its request side, and nothing a Result holds is the scratch's.

// warmFixture is newRoundTripFixture plus a hometown of one user and an
// owner with one subscription, so that every shape below can be run on
// fewer and on more entries (or streams).
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
	return s
}

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
// a warm session, per plan shape: its rows (row headers, slabs, string
// arenas), an aggregate's groups, and the Result — its keys and the
// store's results come from the session's scratch. Each shape runs on
// fewer and on more entries, or child rows, or streams, and costs the
// same on both: nothing is paid per key, per entry or per stream.
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
	}{
		{"pk lookup", `SELECT * FROM users WHERE username IN (?, ?, ?)`,
			func(ops []core.Physical) bool { _, ok := ops[0].(*core.PKLookup); return ok },
			[]value.Value{str("u01"), str("u01"), str("u01")}, []value.Value{str("u01"), str("u02"), str("u03")}, 6},
		{"primary index scan", `SELECT * FROM thoughts WHERE owner = ? AND timestamp < ? ORDER BY timestamp LIMIT 10`,
			func(ops []core.Physical) bool { sc, ok := ops[0].(*core.IndexScan); return ok && sc.Index.Primary },
			[]value.Value{str("u01"), value.Int(2)}, []value.Value{str("u01"), value.Int(12)}, 6},
		{"dereferencing index scan", `SELECT * FROM users WHERE hometown = ?`,
			func(ops []core.Physical) bool { sc, ok := ops[0].(*core.IndexScan); return ok && sc.NeedDeref },
			[]value.Value{str("h2")}, []value.Value{str("h0")}, 6},
		{"fk join", `SELECT u.username, u.bio FROM subscriptions s JOIN users u WHERE u.username = s.target AND s.owner = ?`,
			func(ops []core.Physical) bool { _, ok := ops[1].(*core.IndexFKJoin); return ok },
			few, more, 7},
		{"primary sorted join", `SELECT thoughts.* FROM subscriptions s JOIN thoughts
			WHERE thoughts.owner = s.target AND s.owner = ? AND s.approved = true ORDER BY thoughts.timestamp DESC LIMIT 10`,
			func(ops []core.Physical) bool { j, ok := ops[1].(*core.SortedIndexJoin); return ok && j.Index.Primary },
			few, more, 10},
		{"secondary sorted join", `SELECT a.* FROM subscriptions s JOIN articles a
			WHERE a.author = s.target AND s.owner = ? ORDER BY a.ts DESC LIMIT 10`,
			func(ops []core.Physical) bool { j, ok := ops[1].(*core.SortedIndexJoin); return ok && !j.Index.Primary },
			few, more, 10},
		{"aggregate", `SELECT COUNT(*), MAX(target) FROM subscriptions WHERE owner = ?`,
			func(ops []core.Physical) bool { _, ok := ops[0].(*core.IndexScan); return ok },
			few, more, 15},
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
