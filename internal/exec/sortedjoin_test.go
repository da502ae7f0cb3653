package exec_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"piql/internal/core"
	"piql/internal/engine"
	"piql/internal/exec"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/value"
)

// Differential test of the sorted join: seeded random subscriptions ×
// thoughts (streams over the primary index) and × articles (streams
// over a secondary index), with timestamps that tie across and within
// streams, streams shorter than the limit and empty streams. Every
// result is compared across the three strategies, against a naive
// in-memory evaluation of the same query, and page by page against the
// unpaginated result.

// match is one joined row reduced to its identity and its sort value.
type match struct {
	id string
	ts int64
}

var strategies = []exec.Strategy{exec.Lazy, exec.Simple, exec.Parallel}

type joinFixture struct {
	cluster *kvstore.Cluster
	eng     *engine.Engine
	s       *engine.Session
	// thoughts and articles are every row that joins to an approved
	// subscription of "me", whose targets are approved.
	thoughts, articles []match
	approved           []string
	streams            int
	pads               int // keys splitAtStream wrote outside every table
}

func newJoinFixture(t *testing.T, rng *rand.Rand, targets, maxPerTarget int) *joinFixture {
	t.Helper()
	cluster := kvstore.New(kvstore.Config{Nodes: 3, ReplicationFactor: 2, Seed: rng.Int64()}, nil)
	eng := engine.New(cluster)
	fx := &joinFixture{cluster: cluster, eng: eng, s: eng.Session(nil)}
	do := func(sql string, params ...value.Value) {
		t.Helper()
		if err := fx.s.Exec(sql, params...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	do(`CREATE TABLE users (username VARCHAR(20), PRIMARY KEY (username))`)
	do(`CREATE TABLE subscriptions (owner VARCHAR(20), target VARCHAR(20), approved BOOLEAN,
		PRIMARY KEY (owner, target), FOREIGN KEY (target) REFERENCES users, CARDINALITY LIMIT 20 (owner))`)
	// No owner holds more than 24 thoughts (maxPerTarget is at most 20);
	// the limit is what bounds a join no stop may cut short.
	do(`CREATE TABLE thoughts (owner VARCHAR(20), ts INT, text VARCHAR(40), PRIMARY KEY (owner, ts),
		CARDINALITY LIMIT 24 (owner))`)
	do(`CREATE TABLE articles (id VARCHAR(20), author VARCHAR(20), ts INT, PRIMARY KEY (id))`)
	// Serves ORDER BY ts ASC by a reversed scan; ORDER BY ts DESC gets its
	// own forward index from the compiler.
	do(`CREATE INDEX articles_newest ON articles (author, ts DESC, id DESC)`)
	for i := 0; i < targets; i++ {
		name := fmt.Sprintf("t%02d", i)
		approved := rng.IntN(5) > 0
		do(`INSERT INTO users VALUES (?)`, value.Str(name))
		do(`INSERT INTO subscriptions VALUES ('me', ?, ?)`, value.Str(name), value.Bool(approved))
		if approved {
			fx.streams++
			fx.approved = append(fx.approved, name)
		}
		// A third of the streams are empty or a row or two long.
		count := func() int {
			if rng.IntN(3) == 0 {
				return rng.IntN(3)
			}
			return rng.IntN(maxPerTarget + 1)
		}
		// Thought timestamps are unique per owner (the primary key) and
		// drawn from a range narrow enough to tie across owners.
		for _, ts := range rng.Perm(maxPerTarget + 4)[:count()] {
			do(`INSERT INTO thoughts VALUES (?, ?, 'txt')`, value.Str(name), value.Int(int64(ts)))
			if approved {
				fx.thoughts = append(fx.thoughts, match{fmt.Sprintf("%s/%d", name, ts), int64(ts)})
			}
		}
		// Article timestamps also tie within one author.
		for j, n := 0, count(); j < n; j++ {
			id, ts := fmt.Sprintf("a-%s-%02d", name, j), int64(rng.IntN(6))
			do(`INSERT INTO articles VALUES (?, ?, ?)`, value.Str(id), value.Str(name), value.Int(ts))
			if approved {
				fx.articles = append(fx.articles, match{id, ts})
			}
		}
	}
	return fx
}

// shape is one query over one of the two joined tables.
type shape struct {
	name    string
	sql     string // with %s for the direction and the stop clause
	primary bool
	all     func(*joinFixture) []match
	row     func(value.Row) match
}

var shapes = []shape{
	{
		name: "thoughts", primary: true,
		sql: `SELECT thoughts.owner, thoughts.ts FROM subscriptions s JOIN thoughts
		      WHERE thoughts.owner = s.target AND s.owner = ? AND s.approved = true
		      ORDER BY thoughts.ts %s %s`,
		all: func(fx *joinFixture) []match { return fx.thoughts },
		row: func(r value.Row) match { return match{fmt.Sprintf("%s/%d", r[0].S, r[1].I), r[1].I} },
	},
	{
		name: "articles",
		sql: `SELECT a.id, a.ts FROM subscriptions s JOIN articles a
		      WHERE a.author = s.target AND s.owner = ? AND s.approved = true
		      ORDER BY a.ts %s %s`,
		all: func(fx *joinFixture) []match { return fx.articles },
		row: func(r value.Row) match { return match{r[0].S, r[1].I} },
	},
}

func (fx *joinFixture) prepare(t *testing.T, sh shape, dir, stop string) *engine.Prepared {
	t.Helper()
	q, err := fx.s.Prepare(fmt.Sprintf(sh.sql, dir, stop))
	if err != nil {
		t.Fatalf("%s %s %s: %v", sh.name, dir, stop, err)
	}
	return q
}

// sortedJoin returns the plan's sorted join.
func sortedJoin(t *testing.T, q *engine.Prepared) *core.SortedIndexJoin {
	t.Helper()
	for _, op := range q.Plan().RemoteOps() {
		if j, ok := op.(*core.SortedIndexJoin); ok {
			return j
		}
	}
	t.Fatalf("no SortedIndexJoin in:\n%s", q.Plan().Explain())
	return nil
}

// splitAtStream rebalances the cluster with a sampled split inside one of
// join's streams — the approved target whose range holds the most keys,
// between its first and its last — and requires the split to land on
// the stream's group start, so the whole stream stays in one partition.
// It reports whether a stream held two keys or more. Rebalance samples
// its splits at every third of the sorted keys (three nodes), so it first
// pads the key space below or above every table's keys until the first
// sample lands inside the stream: a pad below moves the stream up by one
// key and the sample by a third, a pad above moves only the sample.
// Ranges a split cuts in two are requestsets.golden's byte-key ranges.
func (fx *joinFixture) splitAtStream(t *testing.T, join *core.SortedIndexJoin) bool {
	t.Helper()
	cl := fx.cluster.NewClient(nil)
	set := kvstore.RequestSet{Kind: kvstore.Range}
	if err := cl.Issue(&set, kvstore.ReadOpts{}); err != nil {
		t.Fatal(err)
	}
	all := set.Items
	a, b := 0, 0 // the stream's keys are all[a:b]
	var group []byte
	for _, target := range fx.approved {
		prefix := index.ScanPrefix(join.Index, value.Row{value.Str(target)})
		if join.Index.Primary {
			prefix = index.RecordKeyFromPK(join.Table, value.Row{value.Str(target)})
		}
		from := sort.Search(len(all), func(i int) bool { return bytes.Compare(all[i].Key, prefix) >= 0 })
		to := from
		for to < len(all) && bytes.HasPrefix(all[to].Key, prefix) {
			to++
		}
		if to-from > b-a {
			a, b, group = from, to, prefix
		}
	}
	if b-a < 2 {
		return false
	}
	if first, last := all[a].Key[0], all[b-1].Key[0]; first == 0x00 || last == 0xff {
		t.Fatalf("the stream's keys start with %#x and %#x: no room to pad below or above them", first, last)
	}
	n, keys := fx.cluster.NumNodes(), len(all)
	for pad := 0; ; pad++ {
		below, above := (keys+pad)/n-pad, (keys+pad)/n // the sample's position among the unpadded keys
		var at byte
		switch {
		case a < below && below < b:
			at = 0x00
		case a < above && above < b:
			at = 0xff
		default:
			continue
		}
		for i := 0; i < pad; i++ {
			fx.pads++
			if err := cl.Put(fmt.Appendf([]byte{at}, "pad%06d", fx.pads), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		break
	}
	fx.cluster.Rebalance()
	splits := fx.cluster.Splits()
	for _, split := range splits {
		if bytes.Compare(group, split) < 0 && bytes.Compare(split, all[b-1].Key) <= 0 {
			t.Fatalf("split %q of %q lands inside the stream (%q, %q]", split, splits, group, all[b-1].Key)
		}
	}
	if !slices.ContainsFunc(splits, func(split []byte) bool { return bytes.Equal(split, group) }) {
		t.Fatalf("no split of %q lands on the stream's group start %q", splits, group)
	}
	return true
}

// run executes q under every strategy, requires the three results to be
// equal row for row, and returns them reduced to matches.
func (fx *joinFixture) run(t *testing.T, sh shape, q *engine.Prepared) []match {
	t.Helper()
	var first []value.Row
	for i, strat := range strategies {
		fx.s.SetStrategy(strat)
		res, err := q.Execute(fx.s, value.Str("me"))
		if err != nil {
			t.Fatalf("%s (%v): %v", q.SQL(), strat, err)
		}
		if i == 0 {
			first = res.Rows
		} else if !reflect.DeepEqual(first, res.Rows) {
			t.Fatalf("%s: %v differs from %v:\n%v\n%v", q.SQL(), strat, strategies[0], res.Rows, first)
		}
	}
	out := make([]match, len(first))
	for i, r := range first {
		out[i] = sh.row(r)
	}
	return out
}

// checkAgainstReference compares got with the naive evaluation: collect
// every match, sort by the sort column, cut to limit. Rows of equal sort
// value may come in any order, so got must have the reference's sequence
// of sort values and consist of distinct rows that really match.
func checkAgainstReference(t *testing.T, what string, got, all []match, desc bool, limit int) {
	t.Helper()
	ref := append([]match{}, all...)
	sort.SliceStable(ref, func(a, b int) bool {
		if desc {
			return ref[a].ts > ref[b].ts
		}
		return ref[a].ts < ref[b].ts
	})
	if len(ref) > limit {
		ref = ref[:limit]
	}
	if len(got) != len(ref) {
		t.Fatalf("%s: %d rows, reference has %d\n got %v\n ref %v", what, len(got), len(ref), got, ref)
	}
	live := map[match]bool{}
	for _, m := range all {
		live[m] = true
	}
	for i, m := range got {
		if m.ts != ref[i].ts {
			t.Fatalf("%s: row %d has sort value %d, reference %d\n got %v\n ref %v", what, i, m.ts, ref[i].ts, got, ref)
		}
		if !live[m] {
			t.Fatalf("%s: row %d = %v repeats a row or matches nothing", what, i, m)
		}
		delete(live, m)
	}
}

func TestSortedJoinDifferential(t *testing.T) {
	scans := map[string]bool{}  // which (index kind, direction) pairs ran
	atStart := map[string]int{} // and how often with a split at a stream's start
	for seed := uint64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		fx := newJoinFixture(t, rng, 1+rng.IntN(12), 20)
		for _, sh := range shapes {
			for _, dir := range []string{"ASC", "DESC"} {
				what := fmt.Sprintf("seed %d, %d streams, %s %s", seed, fx.streams, sh.name, dir)

				// LIMIT L: strategies agree, and agree with the reference.
				limit := 1 + rng.IntN(15)
				q := fx.prepare(t, sh, dir, fmt.Sprintf("LIMIT %d", limit))
				join := sortedJoin(t, q)
				if join.Index.Primary != sh.primary || join.Stop != limit || join.PerKeyLimit != limit {
					t.Fatalf("%s: unexpected join %s", what, join.Label())
				}
				pair := fmt.Sprintf("primary=%v ascending=%v", join.Index.Primary, join.Ascending)
				scans[pair] = true
				checkAgainstReference(t, what+fmt.Sprintf(" LIMIT %d", limit), fx.run(t, sh, q), sh.all(fx), dir == "DESC", limit)

				// A rebalance samples a split inside one stream's range and
				// rounds it to the stream's start: the streams now lie in
				// several partitions, each whole, and every check from here
				// on runs over that layout.
				if fx.splitAtStream(t, join) {
					atStart[pair]++
					checkAgainstReference(t, what+fmt.Sprintf(" LIMIT %d, split", limit), fx.run(t, sh, q), sh.all(fx), dir == "DESC", limit)
				}

				// The whole result, for the pages to be compared with.
				full := fx.run(t, sh, fx.prepare(t, sh, dir, "LIMIT 500"))
				checkAgainstReference(t, what+" LIMIT 500", full, sh.all(fx), dir == "DESC", 500)

				// PAGINATE P: the pages, each fetched through a cursor that
				// went through Serialize/RestoreCursor, concatenate to the
				// unpaginated result — nothing skipped, nothing repeated.
				page := 1 + rng.IntN(15)
				pq := fx.prepare(t, sh, dir, fmt.Sprintf("PAGINATE %d", page))
				for _, strat := range strategies {
					fx.s.SetStrategy(strat)
					cur, err := pq.Paginate(value.Str("me"))
					if err != nil {
						t.Fatal(err)
					}
					var paged []match
					for !cur.Done() {
						res, err := cur.Next(fx.s)
						if err != nil {
							t.Fatalf("%s PAGINATE %d (%v): %v", what, page, strat, err)
						}
						for _, r := range res.Rows {
							paged = append(paged, sh.row(r))
						}
						if len(paged) > len(full) {
							break
						}
						if cur, err = fx.eng.RestoreCursor(fx.s, cur.Serialize()); err != nil {
							t.Fatal(err)
						}
					}
					if !reflect.DeepEqual(paged, full) && len(paged)+len(full) > 0 {
						t.Fatalf("%s PAGINATE %d (%v): pages differ from the unpaginated result\n paged %v\n full  %v",
							what, page, strat, paged, full)
					}
				}
			}
		}
	}
	if len(scans) != 4 || len(atStart) != 4 {
		t.Errorf("want forward and reversed scans of a primary and a secondary index, each with a split at a stream's start; ran %v, split %v", scans, atStart)
	}
}

// TestSortedJoinUnderOperatorsAbove: what sits between the join and the
// query's stop decides whether the join may stop early.
func TestSortedJoinUnderOperatorsAbove(t *testing.T) {
	// Three streams of 20 thoughts each, ts 0..19 in every one.
	fx := newJoinFixture(t, rand.New(rand.NewPCG(1, 0)), 0, 0)
	for _, owner := range []string{"o1", "o2", "o3"} {
		for _, sql := range []string{`INSERT INTO users VALUES (?)`, `INSERT INTO subscriptions VALUES ('me', ?, true)`} {
			if err := fx.s.Exec(sql, value.Str(owner)); err != nil {
				t.Fatal(err)
			}
		}
		for ts := 0; ts < 20; ts++ {
			if err := fx.s.Exec(`INSERT INTO thoughts VALUES (?, ?, 'txt')`, value.Str(owner), value.Int(int64(ts))); err != nil {
				t.Fatal(err)
			}
		}
	}
	execute := func(q *engine.Prepared, strat exec.Strategy) string {
		t.Helper()
		fx.s.SetStrategy(strat)
		fx.s.Client().ResetOps()
		res, err := q.Execute(fx.s, value.Str("me"))
		if err != nil {
			t.Fatalf("%s (%v): %v", q.SQL(), strat, err)
		}
		if ops, bound := int(fx.s.Client().Ops()), q.Bound().Ops; strat != exec.Lazy && ops > bound {
			t.Errorf("%s (%v): %d ops measured, static bound %d", q.SQL(), strat, ops, bound)
		}
		return fmt.Sprint(res.Rows)
	}

	// An aggregate regroups the rows before the stop applies to them: the
	// stop counts groups, so the join fetches every match the schema's
	// cardinality admits, not 5 per stream.
	agg, err := fx.s.Prepare(`SELECT thoughts.ts, COUNT(*) FROM subscriptions s JOIN thoughts
		WHERE thoughts.owner = s.target AND s.owner = ?
		GROUP BY thoughts.ts ORDER BY thoughts.ts DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if join := sortedJoin(t, agg); join.Stop != 0 || join.PerKeyLimit != 24 {
		t.Fatalf("aggregate above: join %s, want the cardinality flavour", join.Label())
	}
	// A declared foreign-key join keeps every row in order: the join below
	// stops at the page and the join above fetches 5 users, not 3 × 5.
	fk, err := fx.s.Prepare(`SELECT thoughts.ts, thoughts.owner, u.username
		FROM subscriptions s JOIN thoughts JOIN users u
		WHERE thoughts.owner = s.target AND s.owner = ? AND u.username = s.target
		ORDER BY thoughts.ts DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if join := sortedJoin(t, fk); join.Stop != 5 || fk.Bound().Ops != 1+20+5 {
		t.Fatalf("fk join above: join %s, bound %d, want stop=5 and 26 ops\n%s", join.Label(), fk.Bound().Ops, fk.Bound())
	}
	for _, strat := range strategies {
		if got, want := execute(agg, strat), "[(19, 3) (18, 3) (17, 3) (16, 3) (15, 3)]"; got != want {
			t.Errorf("aggregate above (%v): %s, want %s", strat, got, want)
		}
		// Ties at one ts come out in stream order.
		if got, want := execute(fk, strat), `[(19, "o1", "o1") (19, "o2", "o2") (19, "o3", "o3") (18, "o1", "o1") (18, "o2", "o2")]`; got != want {
			t.Errorf("fk join above (%v): %s, want %s", strat, got, want)
		}
	}
}
