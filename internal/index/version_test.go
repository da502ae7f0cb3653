package index

import (
	"strings"
	"testing"

	"piql/internal/kvstore"
	"piql/internal/schema"
	"piql/internal/value"
)

// TestBackfillStampLosesToRacingDelete pins the mechanism that makes
// the delete-racing-backfill dangle structurally impossible: backfill
// entry writes are stamped at the scan-begin version, so a delete
// issued after that stamp outranks the backfill's late re-put on every
// replica — regardless of the order the writes land in.
func TestBackfillStampLosesToRacingDelete(t *testing.T) {
	cat, tab := thoughtsTable(t)
	ix, err := cat.AddIndex(&schema.Index{
		Name:   "by_time",
		Table:  "thoughts",
		Fields: []schema.IndexField{{Column: "timestamp"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Primary {
		t.Fatal("fixture index unexpectedly canonicalized as primary")
	}
	cluster := kvstore.New(kvstore.Config{Nodes: 2, ReplicationFactor: 2, Seed: 5}, nil)
	cl := cluster.NewClient(nil)

	row := value.Row{value.Str("ann"), value.Int(7), value.Str("x")}
	ekey := EntryKeys(ix, tab, row)[0]

	snap := cl.StampVersion()                                    // the backfill's scan-begin stamp
	cl.Delete(ekey)                                              // a writer's racing delete, stamped later
	cl.Apply(&kvstore.WriteSet{Keys: [][]byte{ekey}, At: &snap}) // the backfill's stale re-put lands last
	if _, _, ok, err := cl.Read(ekey, kvstore.ReadOpts{}); err != nil || ok {
		t.Fatal("backfill's stale stamped put resurrected a deleted entry")
	}

	// VerifyBuildSuspects: the suspect is absent — invariant holds.
	m := NewMaintainer(cat)
	if err := m.VerifyBuildSuspects(cl, ix, snap, [][]byte{ekey}); err != nil {
		t.Fatalf("invariant check failed on a converged suspect: %v", err)
	}
	// A writer re-creating the entry afterwards is legitimate: its stamp
	// is newer than the scan's.
	cl.Put(ekey, nil)
	if err := m.VerifyBuildSuspects(cl, ix, snap, [][]byte{ekey}); err != nil {
		t.Fatalf("invariant check rejected a writer-owned entry: %v", err)
	}

	// And the violation the assertion exists for: an entry still carrying
	// a scan-age version after its delete was recorded means the store
	// broke put-if-newer. Simulate it with a fresh key written only at a
	// pre-snap stamp.
	old := cl.StampVersion()
	snap2 := cl.StampVersion()
	ghost := EntryKeys(ix, tab, value.Row{value.Str("bob"), value.Int(1), value.Str("y")})[0]
	cl.Apply(&kvstore.WriteSet{Keys: [][]byte{ghost}, At: &old})
	err = m.VerifyBuildSuspects(cl, ix, snap2, [][]byte{ghost})
	if err == nil || !strings.Contains(err.Error(), "build ghost") {
		t.Fatalf("invariant check missed a scan-age ghost: %v", err)
	}
}
