package main

import (
	"fmt"
	"math/rand/v2"

	"piql/internal/schema"
	"piql/internal/value"
)

// scadrWorker renders SCADr home pages for one client thread: findUser,
// usersFollowed, recentThoughts and thoughtstream for a random user, and
// one time in a hundred a new thought. Every result is checked.
type scadrWorker struct {
	st   *site
	seed int64
	sz   scadrSize
	rng  *rand.Rand
	ts   int64
	draw uint64 // fold of every parameter draw

	thoughts                                               *schema.Table
	findUser, usersFollowed, recentThoughts, thoughtstream *stmt
}

// prepareSCADr prepares the four home-page statements on st (building
// the indexes they need) and returns them in page order.
func prepareSCADr(st *site, in *inputs, page int) ([4]*stmt, error) {
	defs := []struct {
		name, sql, table string
		pk               func([]value.Value, value.Row) value.Row
		scan             func([]value.Value) (value.Row, int)
	}{
		{"findUser", scadrFindUser, "users", col0, nil},
		{"usersFollowed", scadrUsersFollowed, "users", col0, nil},
		{"recentThoughts", fmt.Sprintf(scadrRecentThoughts, page), "thoughts",
			func(p []value.Value, r value.Row) value.Row { return value.Row{p[0], r[0]} },
			func(p []value.Value) (value.Row, int) { return value.Row{p[0]}, page }},
		{"thoughtstream", fmt.Sprintf(scadrThoughtstream, page), "thoughts",
			func(_ []value.Value, r value.Row) value.Row { return value.Row{r[0], r[1]} }, nil},
	}
	var out [4]*stmt
	for i, d := range defs {
		q, err := st.prepare(in, d.name, d.sql, d.table, d.pk, d.scan)
		if err != nil {
			return out, err
		}
		out[i] = q
	}
	return out, nil
}

func newSCADrWorker(st *site, stmts [4]*stmt, seed int64, sz scadrSize, id int) *scadrWorker {
	return &scadrWorker{
		st: st, seed: seed, sz: sz,
		rng:      newRand(seed, 100+uint64(id)),
		ts:       2_000_000_000 + int64(id)*10_000_000,
		thoughts: st.eng.Catalog().Table("thoughts"),
		findUser: stmts[0], usersFollowed: stmts[1], recentThoughts: stmts[2], thoughtstream: stmts[3],
	}
}

// shadowThought moves a thought's timestamp far below any the workload
// reads, so a ladder replay never shows up in a page.
func shadowThought(r value.Row) value.Row {
	r[1] = value.Int(r[1].I - 1_999_000_000)
	return r
}

// interaction renders one page and reports whether every statement
// succeeded and every output check held.
func (w *scadrWorker) interaction() bool {
	u := w.rng.IntN(w.sz.users)
	post := w.rng.IntN(100) == 0
	fold(&w.draw, uint64(u)<<1|uint64(b2i(post)))
	me := value.Str(userName(u))

	res, err := w.st.query(w.findUser, me)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != me.S || res.Rows[0][1].S != townOf(w.seed, u) {
		return false
	}
	followed, err := w.st.query(w.usersFollowed, me)
	if err != nil || len(followed.Rows) != w.sz.subs {
		return false
	}
	res, err = w.st.query(w.recentThoughts, me)
	if err != nil || len(res.Rows) != min(w.sz.page, w.sz.thoughts) || !descending(res.Rows, 0) {
		return false
	}
	res, err = w.st.query(w.thoughtstream, me)
	if err != nil || len(res.Rows) > w.sz.page || !descending(res.Rows, 1) {
		return false
	}
	for _, row := range res.Rows {
		if !hasUser(followed.Rows, row[0].S) {
			return false
		}
	}
	if post {
		w.ts++
		if err := w.st.insert(scadrInsertThought, w.thoughts, shadowThought,
			me, value.Int(w.ts), value.Str("a fresh thought")); err != nil {
			return false
		}
	}
	return true
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// descending reports whether column col never increases down the rows.
func descending(rows []value.Row, col int) bool {
	for i := 1; i < len(rows); i++ {
		if rows[i][col].I > rows[i-1][col].I {
			return false
		}
	}
	return true
}

func hasUser(rows []value.Row, name string) bool {
	for _, r := range rows {
		if r[0].S == name {
			return true
		}
	}
	return false
}
