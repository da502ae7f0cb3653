package harness

import (
	"fmt"
	"io"

	"piql/internal/kvstore"
	"piql/internal/value"
)

// Fig1Row reports, for one database size, the amount of data relevant
// to a representative query of each scaling class (Section 2):
// Class I constant, Class II bounded, Class III linear, Class IV
// super-linear. Classes I and II are measured by executing real PIQL
// queries and counting storage operations; III and IV are the paper's
// disallowed shapes, counted in the records they would touch (PIQL
// rejects them).
type Fig1Row struct {
	Users        int
	ClassI       int64 // profile lookup by primary key
	ClassII      int64 // subscriptions of one user (cardinality-bounded)
	ClassIIBound int64 // the Class II query's static operation bound
	ClassIII     int64 // count of all logged-in users (linear scan)
	ClassIV      int64 // pairwise similarity (self cartesian product)
}

// RunFig1 sweeps database sizes and measures each class.
func RunFig1(sizes []int, seed int64) ([]Fig1Row, error) {
	var rows []Fig1Row
	for _, users := range sizes {
		r, err := newRig(kvstore.Config{Nodes: 4, ReplicationFactor: 1, Seed: seed}, nil, []string{
			`CREATE TABLE users (username VARCHAR(20), hometown VARCHAR(20), PRIMARY KEY (username))`,
			`CREATE TABLE subscriptions (owner VARCHAR(20), target VARCHAR(20),
				PRIMARY KEY (owner, target), CARDINALITY LIMIT 100 (owner))`,
		})
		if err != nil {
			return nil, err
		}
		s := r.loader
		for u := 0; u < users; u++ {
			name := fmt.Sprintf("u%06d", u)
			if err := s.Exec(`INSERT INTO users VALUES (?, 'SF')`, value.Str(name)); err != nil {
				return nil, err
			}
			for k := 1; k <= 10; k++ {
				if err := s.Exec(`INSERT INTO subscriptions VALUES (?, ?)`,
					value.Str(name), value.Str(fmt.Sprintf("u%06d", (u+k)%users))); err != nil {
					return nil, err
				}
			}
		}
		row := Fig1Row{Users: users}

		// Class I: point lookup.
		s.Client().ResetOps()
		if _, err := s.Query(`SELECT * FROM users WHERE username = 'u000001'`); err != nil {
			return nil, err
		}
		row.ClassI = s.Client().Ops()

		// Class II: bounded relationship (10 actual, 100 max).
		q, err := s.Prepare(`SELECT target FROM subscriptions WHERE owner = 'u000001'`)
		if err != nil {
			return nil, err
		}
		s.Client().ResetOps()
		if _, err := q.Execute(s); err != nil {
			return nil, err
		}
		row.ClassII = s.Client().Ops()
		row.ClassIIBound = int64(q.Plan().OpBound())

		// Class III: touching every user (PIQL rejects this query; the
		// relevant data is the full table).
		row.ClassIII = int64(users)

		// Class IV: self cartesian product for clustering.
		row.ClassIV = int64(users) * int64(users)

		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig1 renders the class comparison.
func PrintFig1(out io.Writer, rows []Fig1Row) {
	fmt.Fprintln(out, "Fig 1: amount of relevant data vs database size, by query scaling class")
	fmt.Fprintf(out, "%10s %12s %12s %14s %16s\n", "users", "Class I", "Class II", "Class III", "Class IV")
	for _, r := range rows {
		fmt.Fprintf(out, "%10d %12d %12d %14d %16d\n", r.Users, r.ClassI, r.ClassII, r.ClassIII, r.ClassIV)
	}
	if len(rows) > 0 {
		fmt.Fprintf(out, "(Classes I and II in storage operations; Class II's static bound is %d.)\n", rows[0].ClassIIBound)
	}
	fmt.Fprintln(out, "Classes I and II stay flat as the database grows — the only classes a")
	fmt.Fprintln(out, "success-tolerant application can use; PIQL statically rejects III and IV.")
	fmt.Fprintln(out)
}
