package engine

import (
	"bytes"
	"testing"

	"piql/internal/exec"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/value"
)

// TestStaticBoundCoversMeasuredOps cross-checks the static analyzer
// against the measured request counts of every plan pinned in
// roundtrip_test.go: the bound must be sound (>= what the batching
// executors actually issue) and tight within a documented slack factor
// (so a regression to uselessly loose bounds fails too).
//
// Two deliberate sources of slack, documented per case:
//
//   - declared vs actual cardinality: the bound pays the declared
//     CARDINALITY LIMIT (100 subscriptions per owner, 5 users per
//     hometown), the fixture's actual fan-out is K=3;
//   - logical operations vs requests: the bound counts key/value
//     *operations* (every get in a dereference batch), the op-counting
//     client counts *request sets* — on the single-node fixture a batch
//     of 100 gets lands as one request.
//
// The Lazy executor is outside the bound's contract: it trades round
// trips for memory by design (Section 8.5), issuing one request per
// tuple, and so may exceed the operation bound (e.g. a LIMIT 10 scan
// is 1 bounded operation but 10 lazy requests).
func TestStaticBoundCoversMeasuredOps(t *testing.T) {
	checkBoundCoversMeasuredOps(t, newRoundTripFixture(t))
}

// TestStaticBoundCoversMeasuredOpsAfterRebalance holds the same shapes to
// their bounds on four nodes at RF 2 after three rebalances. u01, whose
// thoughts the index scan and the sorted joins read, is made hot: its
// thoughts hold most of the keys, so every key the rebalance samples as a
// split falls inside that group. A bounded range read is booked at one
// operation; only splits on group boundaries keep it to one partition
// (a Parallel scan reads every partition its range touches).
func TestStaticBoundCoversMeasuredOpsAfterRebalance(t *testing.T) {
	s := newRoundTripFixtureOn(t, kvstore.Config{Nodes: 4, ReplicationFactor: 2, Seed: 2})
	for ts := 12; ts < 600; ts++ {
		if err := s.Exec(`INSERT INTO thoughts VALUES ('u01', ?, 'txt')`, value.Int(int64(ts))); err != nil {
			t.Fatal(err)
		}
	}
	// Preparing builds the indexes the plans need, so their entries are
	// among the keys the rebalances sample.
	for _, tc := range measuredShapes {
		if _, err := s.Prepare(tc.sql); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	hot := index.RecordKeyFromPK(s.eng.Catalog().Table("thoughts"), value.Row{value.Str("u01")})
	cluster := s.eng.Cluster()
	for round := 0; round < 3; round++ {
		// The rebalance samples its i-th split at keys[i*len(keys)/nodes].
		set := kvstore.RequestSet{Kind: kvstore.Range}
		if err := s.Client().Issue(&set, kvstore.ReadOpts{}); err != nil {
			t.Fatal(err)
		}
		keys, n := set.Items, cluster.NumNodes()
		for i := 1; i < n; i++ {
			at := i * len(keys) / n
			if !bytes.HasPrefix(keys[at-1].Key, hot) || !bytes.HasPrefix(keys[at].Key, hot) {
				t.Fatalf("round %d: sampled split %d of %d keys, %x, is not inside u01's thoughts", round, at, len(keys), keys[at].Key)
			}
		}
		cluster.Rebalance()
	}
	checkBoundCoversMeasuredOps(t, s)
}

// checkBoundCoversMeasuredOps runs every measured shape on s under Simple
// and Parallel and holds the measured operations to the static bound and
// the documented slack.
func checkBoundCoversMeasuredOps(t *testing.T, s *Session) {
	t.Helper()
	for _, tc := range measuredShapes {
		q, err := s.Prepare(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b := q.Bound()
		if !b.Bounded {
			t.Fatalf("%s: classified unbounded: %s", tc.name, b.Reason)
		}
		if b.Ops != tc.bound {
			t.Errorf("%s: analyzer bound = %d, want %d\n%s", tc.name, b.Ops, tc.bound, b)
		}
		for _, strat := range []exec.Strategy{exec.Simple, exec.Parallel} {
			s.SetStrategy(strat)
			s.Client().ResetOps()
			if _, err := q.Execute(s, tc.arg); err != nil {
				t.Fatalf("%s (%v): %v", tc.name, strat, err)
			}
			measured := int(s.Client().Ops())
			if measured > b.Ops {
				t.Errorf("%s (%v): UNSOUND: measured %d ops exceeds static bound %d", tc.name, strat, measured, b.Ops)
			}
			if b.Ops > tc.slack*measured {
				t.Errorf("%s (%v): bound %d looser than documented %dx slack over measured %d",
					tc.name, strat, b.Ops, tc.slack, measured)
			}
		}
	}
}

// measuredShapes are the plans TestStaticBoundCoversMeasuredOps measures
// on newRoundTripFixture, each with its argument.
var measuredShapes = []struct {
	name string
	sql  string
	arg  value.Value
	// bound pins the analyzer's static operation bound; slack is the
	// maximum allowed bound/measured ratio with its derivation.
	bound int
	slack int
}{
	{
		// Exact: one key, one get.
		name: "pk lookup", arg: value.Str("u01"),
		sql:   `SELECT * FROM users WHERE username = ?`,
		bound: 1, slack: 1,
	},
	{
		// Exact: one range request regardless of LIMIT.
		name: "primary index scan", arg: value.Str("u01"),
		sql:   `SELECT * FROM thoughts WHERE owner = ? ORDER BY timestamp DESC LIMIT 10`,
		bound: 1, slack: 1,
	},
	{
		// 1 scan + card(hometown)=5 derefs = 6 vs 2 requests: the
		// deref batch is one request (5x), actual matches are 3 of 5.
		name: "secondary scan deref", arg: value.Str("h0"),
		sql:   `SELECT * FROM users WHERE hometown = ?`,
		bound: 6, slack: 3,
	},
	{
		// 1 scan + card(owner)=100 join gets = 101 vs 2 requests:
		// the join batch is one request and K=3 of the declared 100
		// subscriptions exist.
		name: "fk join", arg: value.Str("u00"),
		sql:   `SELECT u.* FROM subscriptions s JOIN users u WHERE u.username = s.target AND s.owner = ?`,
		bound: 101, slack: 51,
	},
	{
		// 1 child scan + card(owner)=100 per-stream ranges = 101 vs
		// 1 + K = 4 requests (K=3 actual streams).
		name: "sorted join primary", arg: value.Str("u00"),
		sql: `SELECT thoughts.* FROM subscriptions s JOIN thoughts
		      WHERE thoughts.owner = s.target AND s.owner = ? AND s.approved = true
		      ORDER BY thoughts.timestamp DESC LIMIT 10`,
		bound: 101, slack: 26,
	},
	{
		// 1 + 100 ranges + 100x10 derefs = 1101 vs 1 + K + 1 = 5
		// requests: K=3 streams, one cross-stream deref batch.
		name: "sorted join secondary", arg: value.Str("u00"),
		sql: `SELECT a.* FROM subscriptions s JOIN articles a
		      WHERE a.author = s.target AND s.owner = ? AND s.approved = true
		      ORDER BY a.ts DESC LIMIT 10`,
		bound: 1101, slack: 221,
	},
	{
		// 1 + 100 ranges + 10 join gets = 111 vs 1 + K + 1 = 5
		// requests: the join above a sorted join that stops at the page
		// is booked (and run) at LIMIT 10 rows, not 100 x 10.
		name: "fk join above sorted join", arg: value.Str("u00"),
		sql: `SELECT thoughts.*, u.* FROM subscriptions s JOIN thoughts JOIN users u
		      WHERE thoughts.owner = s.target AND s.owner = ? AND s.approved = true
		        AND u.username = s.target
		      ORDER BY thoughts.timestamp DESC LIMIT 10`,
		bound: 111, slack: 23,
	},
	{
		// 1 + 100 ranges + 100x10 derefs (worst case: danglers refill)
		// + 10 join gets = 1111 vs 1 + K + 1 + 1 = 6 requests.
		name: "fk join above secondary sorted join", arg: value.Str("u00"),
		sql: `SELECT a.*, u.* FROM subscriptions s JOIN articles a JOIN users u
		      WHERE a.author = s.target AND s.owner = ? AND s.approved = true
		        AND u.username = s.target
		      ORDER BY a.ts DESC LIMIT 10`,
		bound: 1111, slack: 186,
	},
}
