package engine_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"piql/internal/core"
	"piql/internal/engine"
	"piql/internal/exec"
	"piql/internal/kvstore"
	"piql/internal/value"
	"piql/internal/workload/scadr"
	"piql/internal/workload/tpcw"
)

// TestSkippedColumnsChangeNoAnswer runs every SCADr and TPC-W read
// statement, two paginated SCADr shapes and every shape
// TestStaticBoundCoversMeasuredOps measures twice: as compiled, and after
// zeroing every operator's Skip in the cached plan, so that each record is
// decoded whole, as an operator built anywhere but Phase II decodes it.
// The answers must be identical, value for value. A paginated statement
// is compared page by page, its cursor serialized and restored on a fresh
// session between every two pages. Every statement must return rows for
// some argument, and some plans must skip a column, or the test would
// compare a plan with itself.
func TestSkippedColumnsChangeNoAnswer(t *testing.T) {
	skipping := 0
	compare := func(s *engine.Session, name, sql string, args ...value.Value) {
		t.Helper()
		q, err := s.Prepare(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compiled := answers(t, s, q, args)
		if zeroSkips(q.Plan()) {
			skipping++
		}
		if whole := answers(t, s, q, args); !reflect.DeepEqual(compiled, whole) {
			t.Errorf("%s: as compiled\n%s\ndecoding every column\n%s", name, render(compiled), render(whole))
		}
		if !strings.Contains(render(compiled), "(") {
			t.Errorf("%s returns no row for any of its arguments %v", name, args)
		}
	}

	scfg := scadr.DefaultConfig()
	scfg.UsersPerNode, scfg.ThoughtsPerUser, scfg.SubsPerUser, scfg.MaxSubscriptions = 20, 5, 5, 5
	ss := loaded(t, scadr.DDL(scfg), func(s *engine.Session) error { _, err := scadr.Load(s, scfg, 2); return err })
	w, err := scadr.NewWorker(ss, scfg, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	users := []value.Value{value.Str(scadr.UserName(0)), value.Str(scadr.UserName(17)), value.Str(scadr.UserName(39))}
	for name, q := range w.Queries() {
		compare(ss, "scadr "+name, q.SQL(), users...)
	}
	for name, sql := range map[string]string{
		"Recent Thoughts Paginated": `
			SELECT timestamp, text FROM thoughts WHERE owner = [1: me]
			ORDER BY timestamp DESC PAGINATE 2`,
		"Thoughtstream Paginated": `
			SELECT thoughts.owner, thoughts.text FROM subscriptions s JOIN thoughts
			WHERE thoughts.owner = s.target AND s.owner = [1: me] AND s.approved = true
			ORDER BY thoughts.timestamp DESC PAGINATE 4`,
	} {
		compare(ss, "scadr "+name, sql, users...)
	}

	tcfg := tpcw.DefaultConfig()
	tcfg.CustomersPerNode, tcfg.Items = 20, 100
	ts := loaded(t, tpcw.DDL(tcfg), func(s *engine.Session) error {
		if _, _, err := tpcw.Load(s, tcfg, 2); err != nil {
			return err
		}
		for item := 0; item < 3; item++ {
			if err := s.Exec(`INSERT INTO cart_line VALUES (1, ?, 2)`, value.Int(int64(item*7))); err != nil {
				return err
			}
		}
		return nil
	})
	customers := []value.Value{value.Str(tpcw.CustomerName(0)), value.Str(tpcw.CustomerName(33))}
	ints := func(xs ...int64) (vs []value.Value) {
		for _, x := range xs {
			vs = append(vs, value.Int(x))
		}
		return vs
	}
	strs := func(xs ...string) (vs []value.Value) {
		for _, x := range xs {
			vs = append(vs, value.Str(x))
		}
		return vs
	}
	tpcwArgs := map[string][]value.Value{
		"Home WI":                         customers,
		"New Products WI":                 strs(tpcw.Subjects...),
		"Product Detail WI":               ints(0, 42, 99),
		"Search By Author WI":             ints(0, 3, 10),
		"Search By Author Names WI":       strs("smith", "lee", "chen", "moore"),
		"Search By Title WI":              strs("shadow", "river", "golden"),
		"Order Display WI Get Customer":   customers,
		"Order Display WI Get Last Order": customers,
		"Order Display WI Get OrderLines": ints(1, 20, 40),
		"Buy Request WI":                  ints(1),
	}
	for name, sql := range tpcw.QuerySQL() {
		args, ok := tpcwArgs[name]
		if !ok {
			t.Fatalf("tpcw %s: the test has no arguments for it", name)
		}
		compare(ts, "tpcw "+name, sql, args...)
	}
	if skipping == 0 {
		t.Fatal("no SCADr or TPC-W plan skips a column")
	}

	fixture := engine.NewRoundTripFixture(t)
	sqls, args := engine.MeasuredShapes()
	for i, sql := range sqls {
		compare(fixture, "measured shape "+sql, sql, args[i])
	}
}

// loaded returns a session of a fresh two-node cluster holding the
// tables of ddl, filled by load.
func loaded(t *testing.T, ddl []string, load func(*engine.Session) error) *engine.Session {
	t.Helper()
	s := engine.New(kvstore.New(kvstore.Config{Nodes: 2, ReplicationFactor: 2, Seed: 4}, nil)).Session(nil)
	for _, d := range ddl {
		if err := s.Exec(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := load(s); err != nil {
		t.Fatal(err)
	}
	return s
}

// answers runs q once per argument: the one result of an execution, or
// every page of a paginated statement, each page read on a fresh session
// from the cursor the page before it serialized.
func answers(t *testing.T, s *engine.Session, q *engine.Prepared, args []value.Value) [][]*exec.Result {
	t.Helper()
	var all [][]*exec.Result
	for _, arg := range args {
		if q.Plan().PageSize == 0 {
			res, err := q.Execute(s, arg)
			if err != nil {
				t.Fatalf("%s(%v): %v", q.SQL(), arg, err)
			}
			all = append(all, []*exec.Result{res})
			continue
		}
		cur, err := q.Paginate(arg)
		if err != nil {
			t.Fatal(err)
		}
		var pages []*exec.Result
		for {
			server := s.Engine().Session(nil)
			if cur, err = s.Engine().RestoreCursor(server, cur.Serialize()); err != nil {
				t.Fatal(err)
			}
			page, err := cur.Next(server)
			if err != nil {
				t.Fatalf("%s(%v), page %d: %v", q.SQL(), arg, len(pages)+1, err)
			}
			if page == nil {
				break
			}
			pages = append(pages, page)
		}
		all = append(all, pages)
	}
	return all
}

// zeroSkips clears the Skip of every remote operator of plan and reports
// whether any was set.
func zeroSkips(plan *core.Plan) (skipped bool) {
	for n := plan.Root; n != nil; n = n.Child() {
		var skip *uint64
		switch n := n.(type) {
		case *core.PKLookup:
			skip = &n.Skip
		case *core.IndexScan:
			skip = &n.Skip
		case *core.IndexFKJoin:
			skip = &n.Skip
		case *core.SortedIndexJoin:
			skip = &n.Skip
		default:
			continue
		}
		skipped = skipped || *skip != 0
		*skip = 0
	}
	return skipped
}

// render prints answers one page a line.
func render(all [][]*exec.Result) string {
	var b strings.Builder
	for i, pages := range all {
		for j, p := range pages {
			fmt.Fprintf(&b, "  argument %d page %d: %v more=%v\n", i, j+1, p.Rows, p.More)
		}
	}
	return b.String()
}
