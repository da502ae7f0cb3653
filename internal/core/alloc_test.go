package core

import (
	"runtime/debug"
	"slices"
	"testing"

	"piql/internal/parser"
)

// TestBindAllocations pins what bind and Phase I allocate for the four
// shapes TestPrepareAllocations pins whole compiles of, and for
// prepare_cold's findUser text (a residual !=), so that a change to
// Phase II's share of a compile can be told apart from one to theirs.
// Both size what they build from the statement once: the relations, a
// slab for every predicate list and, for a join, the edges and a slab
// for the join predicates; the projection lists, the sort keys and the
// join order are one allocation each; display names are joined only
// when a text is read.
func TestBindAllocations(t *testing.T) {
	if info, _ := debug.ReadBuildInfo(); info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts differ under -race")
	}
	want := map[string]float64{
		// boundQuery, rels, predicate slab, projCols, projNames, order
		"pk lookup":              6,
		"secondary scan + deref": 6,
		"findUser":               6,
		// ... and edges, the join-predicate slab
		"fk join": 8,
		// ... and the sort keys
		"thoughtstream": 9,
	}
	cat := scadrCatalog(t)
	shapes := append(slices.Clone(pinnedShapes), struct{ name, sql string }{
		"findUser", `SELECT username, hometown FROM users WHERE username = 'u1' AND password != 'p7'`,
	})
	for _, shape := range shapes {
		stmt, err := parser.Parse(shape.sql)
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.(*parser.Select)
		got := testing.AllocsPerRun(100, func() {
			q, edges, chains, err := bind(cat, sel)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := phase1(q, edges, chains); err != nil {
				t.Fatal(err)
			}
		})
		if got > want[shape.name] {
			t.Errorf("%s: bind and phase1 made %v allocations, want at most %v", shape.name, got, want[shape.name])
		}
	}
}
