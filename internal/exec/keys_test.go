package exec

import (
	"bytes"
	"testing"

	"piql/internal/codec"
	"piql/internal/core"
	"piql/internal/index"
	"piql/internal/parser"
	"piql/internal/schema"
	"piql/internal/value"
)

// The key builders carve every key of an operator from one buffer. These
// tests hold each carved key to the key the layout functions build on
// their own, and to cap == len: a key capped at its length cannot be
// appended to in place, so nothing done to one key reaches the next.

var keysDDL = []string{
	`CREATE TABLE users (username VARCHAR(20), hometown VARCHAR(20), PRIMARY KEY (username))`,
	`CREATE TABLE subs (owner VARCHAR(20), slot INT, target VARCHAR(20), PRIMARY KEY (owner, slot),
		FOREIGN KEY (target) REFERENCES users, CARDINALITY LIMIT 10 (owner))`,
	`CREATE TABLE thoughts (owner VARCHAR(20), ts INT, PRIMARY KEY (owner, ts))`,
	`CREATE TABLE articles (id VARCHAR(20), author VARCHAR(20), ts INT, PRIMARY KEY (id))`,
}

// keysCatalog is a catalog of keysDDL's tables.
func keysCatalog(t *testing.T) *schema.Catalog {
	t.Helper()
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
	return cat
}

// compileOn compiles sql over cat with compiler and registers the
// indexes the plan reads.
func compileOn(t *testing.T, cat *schema.Catalog, sql string, compiler func(core.Catalog, *parser.Select) (*core.Plan, error)) *core.Plan {
	t.Helper()
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

// keysPlan compiles sql over keysDDL's catalog, registers the indexes it
// reads, and returns its remote operators and the plan.
func keysPlan(t *testing.T, sql string) ([]core.Physical, *core.Plan) {
	t.Helper()
	plan := compileOn(t, keysCatalog(t), sql, core.Compile)
	return plan.RemoteOps(), plan
}

// checkCarved fails unless each key is its expected bytes and capped at
// its length, before and after something is appended to every one of them.
func checkCarved(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", what, len(got), len(want))
	}
	for round := 0; round < 2; round++ {
		for i := range got {
			if !bytes.Equal(got[i], want[i]) || cap(got[i]) != len(got[i]) {
				t.Fatalf("%s: key %d is % x (cap %d), want % x (cap == len)", what, i, got[i], cap(got[i]), want[i])
			}
		}
		for i := range got {
			_ = append(got[i], 0xEE)
		}
	}
}

// Join keys with a 0x00 inside (escaped to two bytes), a repeat, and the
// empty string.
var joinTargets = []string{"ann", "b\x00b", "ann", ""}

// childRows returns one combined row per target, with the target in
// subs.target's slot.
func childRows(plan *core.Plan, subs *core.IndexScan) []value.Row {
	rows := make([]value.Row, len(joinTargets))
	for i, target := range joinTargets {
		rows[i] = make(value.Row, plan.RowWidth)
		rows[i][subs.TableOffset+subs.Table.ColumnIndex("target")] = value.Str(target)
	}
	return rows
}

func TestPKRecordKeysAreCarved(t *testing.T) {
	ops, _ := keysPlan(t, `SELECT * FROM users WHERE username IN (?, ?, ?, ?)`)
	lookup := ops[0].(*core.PKLookup)
	var params []value.Value
	for _, target := range joinTargets {
		params = append(params, value.Str(target))
	}
	var want [][]byte
	for _, spec := range lookup.Keys {
		v, err := spec[0].Eval(params, nil)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, index.RecordKeyFromPK(lookup.Table, value.Row{v}))
	}
	keys, err := pkRecordKeys(new(scratch), lookup.Table, len(lookup.Keys), lookup.Keys, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	checkCarved(t, lookup.Label(), keys, want)

	ops, plan := keysPlan(t, `SELECT u.* FROM subs s JOIN users u WHERE u.username = s.target AND s.owner = ?`)
	join := ops[1].(*core.IndexFKJoin)
	rows := childRows(plan, ops[0].(*core.IndexScan))
	keys, err = pkRecordKeys(new(scratch), join.Table, len(rows), []core.KeySpec{join.Keys}, rows, []value.Value{value.Str("me")})
	if err != nil {
		t.Fatal(err)
	}
	want = want[:0]
	for _, target := range joinTargets {
		want = append(want, index.RecordKeyFromPK(join.Table, value.Row{value.Str(target)}))
	}
	checkCarved(t, join.Label(), keys, want)
}

func TestStreamKeysAreCarved(t *testing.T) {
	for _, sql := range []string{
		`SELECT thoughts.* FROM subs s JOIN thoughts WHERE thoughts.owner = s.target AND s.owner = ?
			ORDER BY thoughts.ts DESC LIMIT 10`,
		`SELECT a.* FROM subs s JOIN articles a WHERE a.author = s.target AND s.owner = ?
			ORDER BY a.ts DESC LIMIT 10`,
	} {
		ops, plan := keysPlan(t, sql)
		join := ops[1].(*core.SortedIndexJoin)
		scans, reqs, err := openStreams(new(scratch), join, childRows(plan, ops[0].(*core.IndexScan)), []value.Value{value.Str("me")})
		if err != nil {
			t.Fatal(err)
		}
		var got, want [][]byte
		for i, target := range joinTargets {
			prefix := index.ScanPrefix(join.Index, value.Row{value.Str(target)})
			if join.Index.Primary {
				prefix = index.RecordKeyFromPK(join.Table, value.Row{value.Str(target)})
			}
			if reqs[i].Limit != join.PerKeyLimit || reqs[i].Reverse == join.Ascending {
				t.Fatalf("%s: stream %d requests %+v", join.Label(), i, reqs[i])
			}
			got = append(got, scans[i].prefix, reqs[i].Start, reqs[i].End)
			want = append(want, prefix, prefix, codec.PrefixEnd(prefix))
		}
		checkCarved(t, join.Label(), got, want)
	}
}

// TestScanBoundsAreCarved: a scan's prefix, its end and its range bounds
// share one buffer. Each bound is checked by what it admits: a key whose
// range component is v lies in [start, end) exactly when v satisfies the
// query's bounds, whichever way the component is encoded.
func TestScanBoundsAreCarved(t *testing.T) {
	for _, tc := range []struct {
		sql    string
		lo, hi int64
		admits func(v, lo, hi int64) bool
	}{
		{`SELECT * FROM thoughts WHERE owner = ? AND ts > ? AND ts <= ? ORDER BY ts LIMIT 10`, 3, 7,
			func(v, lo, hi int64) bool { return v > lo && v <= hi }},
		{`SELECT * FROM thoughts WHERE owner = ? AND ts >= ? AND ts < ? ORDER BY ts DESC LIMIT 10`, 3, 7,
			func(v, lo, hi int64) bool { return v >= lo && v < hi }},
		{`SELECT * FROM articles WHERE author = ? AND ts > ? AND ts <= ? ORDER BY ts DESC LIMIT 10`, 3, 7,
			func(v, lo, hi int64) bool { return v > lo && v <= hi }},
		{`SELECT * FROM articles WHERE author = ? AND ts >= ? AND ts < ? ORDER BY ts LIMIT 10`, 3, 7,
			func(v, lo, hi int64) bool { return v >= lo && v < hi }},
	} {
		ops, _ := keysPlan(t, tc.sql)
		scan := ops[0].(*core.IndexScan)
		owner := value.Str("b\x00b")
		start, end, err := scanBounds(new(scratch), scan, []value.Value{owner, value.Int(tc.lo), value.Int(tc.hi)})
		if err != nil {
			t.Fatal(err)
		}
		checkCarved(t, scan.Label(), [][]byte{start, end}, [][]byte{bytes.Clone(start), bytes.Clone(end)})
		for v := tc.lo - 2; v <= tc.hi+2; v++ {
			row := make(value.Row, len(scan.Table.Columns)) // the owner in every string column
			for c, col := range scan.Table.Columns {
				if col.Type == value.TypeString {
					row[c] = owner
				}
			}
			row[scan.Table.ColumnIndex("ts")] = value.Int(v)
			key := entryKeyOf(scan.Index, scan.Table, 0, row)
			in := bytes.Compare(start, key) <= 0 && bytes.Compare(key, end) < 0
			if in != tc.admits(v, tc.lo, tc.hi) {
				t.Errorf("%s: ts %d in [% x, % x) is %v", scan.Label(), v, start, end, in)
			}
		}
	}
}
