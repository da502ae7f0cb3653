package exec

import (
	"fmt"
	"testing"

	"piql/internal/core"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/parser"
	"piql/internal/schema"
	"piql/internal/value"
)

// capacities is every buffer's capacity: what the scratch keeps between
// runs.
func (sc *scratch) capacities() [9]int {
	return [9]int{cap(sc.keys), cap(sc.heads), cap(sc.kvs), cap(sc.ranges), cap(sc.streams), cap(sc.reqs), cap(sc.rows), cap(sc.cands), cap(sc.vals)}
}

// TestTake: take carves consecutive pieces, each capped at its length,
// and out of room moves to an array at least twice as large, leaving
// what was carved where it was.
func TestTake(t *testing.T) {
	var buf []int
	a := take(&buf, 3)
	copy(a, []int{1, 2, 3})
	b := take(&buf, 2) // no room: a new array
	copy(b, []int{4, 5})
	c := take(&buf, 4) // after b, in b's array
	copy(c, []int{6, 7, 8, 9})
	_ = append(b, 0) // capped: reallocates rather than run into c
	if cap(a) != 3 || cap(b) != 2 || cap(c) != 4 || len(buf) != 6 || cap(buf) != 6 {
		t.Fatalf("carved caps %d, %d, %d; buffer %d/%d", cap(a), cap(b), cap(c), len(buf), cap(buf))
	}
	if &b[0] == &a[0] || &c[0] != &buf[2] || c[0] != 6 {
		t.Fatalf("pieces %v %v %v do not lie where they were carved", a, b, c)
	}
	take(&buf, 1)
	if a[0] != 1 || b[0] != 4 || c[0] != 6 || cap(buf) != 12 {
		t.Fatalf("carving past the end touched %v %v %v, or left the buffer at %d", a, b, c, cap(buf))
	}
}

// TestUnboundedPlanLeavesScratch: the cost-based baseline's covering scan
// has no static bound, so it reads into buffers of its own run and a
// warm Ctx keeps only what its bounded plans needed — a session that
// once runs a scan over a long section does not hold it afterwards.
func TestUnboundedPlanLeavesScratch(t *testing.T) {
	cat := schema.NewCatalog()
	for _, ddl := range keysDDL {
		stmt, err := parser.Parse(ddl)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
			t.Fatal(err)
		}
	}
	compile := func(sql string, compiler func(core.Catalog, *parser.Select) (*core.Plan, error)) *core.Plan {
		stmt, err := parser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := compiler(cat, stmt.(*parser.Select))
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		for _, ix := range plan.RequiredIndexes {
			if _, err := cat.AddIndex(ix); err != nil {
				t.Fatal(err)
			}
		}
		return plan
	}
	bounded := compile(`SELECT * FROM thoughts WHERE owner = ? ORDER BY ts LIMIT 10`, core.Compile)
	unbounded := compile(`SELECT * FROM articles WHERE author = ?`, core.CompileCostBased)
	if bounded.OpBound() == core.Unbounded || unbounded.OpBound() != core.Unbounded {
		t.Fatalf("bounds %d and %d: want a bounded plan and an unbounded one", bounded.OpBound(), unbounded.OpBound())
	}

	cl := kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 1}, nil).NewClient(nil)
	m := index.NewMaintainer(cat)
	thoughts := cat.Table("thoughts")
	articles := cat.Table("articles")
	const long = 200 // the unbounded scan's section, far past what the bounded plan fetches
	for i := 0; i < long; i++ {
		if i < 12 {
			if err := m.Insert(cl, thoughts, value.Row{value.Str("me"), value.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		row := value.Row{value.Str(fmt.Sprintf("a%03d", i)), value.Str("me"), value.Int(int64(i))}
		if err := m.Insert(cl, articles, row); err != nil {
			t.Fatal(err)
		}
	}

	ctx := &Ctx{Client: cl, Params: []value.Value{value.Str("me")}, Strategy: Parallel}
	for i := 0; i < 3; i++ {
		if res, err := Run(bounded, ctx); err != nil || len(res.Rows) != 10 {
			t.Fatalf("bounded plan: %v, %v", res, err)
		}
	}
	warm := ctx.sc.capacities()
	if warm[2] == 0 || warm[2] >= long {
		t.Fatalf("the warm scratch holds room for %d entries: want some, and fewer than %d", warm[2], long)
	}
	res, err := Run(unbounded, ctx)
	if err != nil || len(res.Rows) != long {
		t.Fatalf("unbounded plan: %d rows, %v", len(res.Rows), err)
	}
	if got := ctx.sc.capacities(); got != warm {
		t.Fatalf("the unbounded plan moved the scratch's capacities from %v to %v", warm, got)
	}
}
