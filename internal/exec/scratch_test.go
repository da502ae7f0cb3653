package exec

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"piql/internal/core"
	"piql/internal/index"
	"piql/internal/kvstore"
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
	cat := keysCatalog(t)
	bounded := compileOn(t, cat, `SELECT * FROM thoughts WHERE owner = ? ORDER BY ts LIMIT 10`, core.Compile)
	unbounded := compileOn(t, cat, `SELECT * FROM articles WHERE author = ?`, core.CompileCostBased)
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

// TestReleaseLeavesNoReplacedStreamsReachable: a plan with two sorted
// joins carves streams twice, and take replaces the streams' array when
// the second join's streams do not fit. The candidate batch, with room
// for both joins' candidates, still points into the replaced array, whose
// streams hold the child scan's rows, which lie in a values array the
// first join's round replaced in turn. So release clears the candidates
// as well as the streams, or the idle Ctx keeps the child's strings, and
// their arena, alive.
func TestReleaseLeavesNoReplacedStreamsReachable(t *testing.T) {
	cat := keysCatalog(t)
	plan := compileOn(t, cat, `SELECT s.target, t.ts FROM subs s JOIN subs s2 JOIN thoughts t
		WHERE s2.owner = s.target AND t.owner = s2.target AND s.owner = ? ORDER BY t.ts DESC LIMIT 10`, core.Compile)
	joins := 0
	for _, op := range plan.RemoteOps() {
		if _, ok := op.(*core.SortedIndexJoin); ok {
			joins++
		}
	}
	if joins != 2 {
		t.Fatalf("not the shape under test:\n%s", plan.Explain())
	}

	// Names of 16 bytes and more, so that no string arena is a tiny
	// allocation sharing its block with something that outlives it.
	const owner, middle = "the-chain-starts-here", "the-chain-goes-through-here"
	cl := kvstore.New(kvstore.Config{Nodes: 1, ReplicationFactor: 1, Seed: 1}, nil).NewClient(nil)
	m := index.NewMaintainer(cat)
	subs, thoughts := cat.Table("subs"), cat.Table("thoughts")
	insert := func(table *schema.Table, row ...value.Value) {
		if err := m.Insert(cl, table, row); err != nil {
			t.Fatal(err)
		}
	}
	insert(subs, value.Str(owner), value.Int(0), value.Str(middle))
	for i := 0; i < 3; i++ {
		end := value.Str(fmt.Sprintf("the-chain-ends-here-%d", i))
		insert(subs, value.Str(middle), value.Int(int64(i)), end)
		for ts := 0; ts < 4; ts++ {
			insert(thoughts, end, value.Int(int64(ts)))
		}
	}

	ctx := &Ctx{Client: cl, Params: []value.Value{value.Str(owner)}, Strategy: Parallel}
	ctx.sc.cands = make([]candidate, 0, 64) // room for both joins' candidates
	res, err := Run(plan, ctx)
	if err != nil || len(res.Rows) != 10 {
		t.Fatalf("%v, %v; want 10 rows", res, err)
	}
	child := weak.Make(unsafe.StringData(res.Rows[0][0].S))
	res = nil
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if child.Value() != nil {
		t.Errorf("a string of the child scan is still reachable from the idle Ctx")
	}
	runtime.KeepAlive(ctx)
}
