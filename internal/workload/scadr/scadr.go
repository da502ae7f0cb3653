// Package scadr implements the paper's SCADr benchmark (Section 8.1.2):
// a Twitter-like microblogging service with users, subscriptions
// (cardinality-limited per the PIQL DDL extension), and 140-character
// thoughts. The workload simulates rendering the SCADr home page: all
// four read queries per interaction, plus a 1% chance of posting a thought.
package scadr

import (
	"fmt"
	"math/rand"

	"piql/internal/engine"
	"piql/internal/value"
)

// Config sizes the dataset. The paper loads 60,000 users per storage
// node with 100 thoughts and 10 subscriptions each; the simulated
// default scales the per-node user count down (keeping the per-user
// shape) so the whole sweep fits in memory — per-operation cost is
// independent of total size, which is the property under test.
type Config struct {
	UsersPerNode     int
	ThoughtsPerUser  int
	SubsPerUser      int
	MaxSubscriptions int // the CARDINALITY LIMIT (paper experiment: 10)
	PageSize         int // thoughtstream page size (paper experiment: 10)
	Seed             int64
}

// DefaultConfig returns the scaled experiment configuration.
func DefaultConfig() Config {
	return Config{
		UsersPerNode:     1000,
		ThoughtsPerUser:  10,
		SubsPerUser:      10,
		MaxSubscriptions: 10,
		PageSize:         10,
		Seed:             7,
	}
}

// DDL returns the SCADr schema with the cardinality constraint sized to
// the configuration.
func DDL(cfg Config) []string {
	return []string{
		`CREATE TABLE users (
			username VARCHAR(20),
			password VARCHAR(20),
			hometown VARCHAR(30),
			PRIMARY KEY (username))`,
		fmt.Sprintf(`CREATE TABLE subscriptions (
			owner VARCHAR(20),
			target VARCHAR(20),
			approved BOOLEAN,
			PRIMARY KEY (owner, target),
			FOREIGN KEY (target) REFERENCES users,
			CARDINALITY LIMIT %d (owner))`, cfg.MaxSubscriptions),
		`CREATE TABLE thoughts (
			owner VARCHAR(20),
			timestamp INT,
			text VARCHAR(140),
			PRIMARY KEY (owner, timestamp))`,
	}
}

// The four SCADr read queries (Section 8.1.2).
func queries(cfg Config) map[string]string {
	return map[string]string{
		"usersFollowed": `
			SELECT u.username, u.hometown FROM subscriptions s JOIN users u
			WHERE u.username = s.target AND s.owner = [1: me]`,
		"recentThoughts": fmt.Sprintf(`
			SELECT timestamp, text FROM thoughts WHERE owner = [1: me]
			ORDER BY timestamp DESC LIMIT %d`, cfg.PageSize),
		"thoughtstream": fmt.Sprintf(`
			SELECT thoughts.owner, thoughts.timestamp, thoughts.text
			FROM subscriptions s JOIN thoughts
			WHERE thoughts.owner = s.target AND s.owner = [1: me] AND s.approved = true
			ORDER BY thoughts.timestamp DESC LIMIT %d`, cfg.PageSize),
		"findUser": `
			SELECT username, hometown FROM users WHERE username = [1: who]`,
	}
}

// ThoughtstreamSQL returns the headline query for external use
// (EXPLAIN demos, prediction heatmaps).
func ThoughtstreamSQL(pageSize int) string {
	return fmt.Sprintf(`
		SELECT thoughts.owner, thoughts.timestamp, thoughts.text
		FROM subscriptions s JOIN thoughts
		WHERE thoughts.owner = s.target AND s.owner = [1: me] AND s.approved = true
		ORDER BY thoughts.timestamp DESC LIMIT %d`, pageSize)
}

// UserName formats the i-th user's name.
func UserName(i int) string { return fmt.Sprintf("u%07d", i) }

// Load populates the store with cfg-sized data for the given node
// count. It uses an immediate-mode session; call before starting the
// simulation clock.
func Load(s *engine.Session, cfg Config, nodes int) (users int, err error) {
	users = cfg.UsersPerNode * nodes
	r := rand.New(rand.NewSource(cfg.Seed))
	for u := 0; u < users; u++ {
		name := UserName(u)
		if err := s.Exec(`INSERT INTO users VALUES (?, ?, ?)`,
			value.Str(name), value.Str("hunter2"), value.Str("Berkeley")); err != nil {
			return 0, fmt.Errorf("scadr: load user: %w", err)
		}
		for i := 0; i < cfg.ThoughtsPerUser; i++ {
			ts := int64(1_000_000 + u*cfg.ThoughtsPerUser + i)
			if err := s.Exec(`INSERT INTO thoughts VALUES (?, ?, ?)`,
				value.Str(name), value.Int(ts),
				value.Str(fmt.Sprintf("thought %d from %s", i, name))); err != nil {
				return 0, fmt.Errorf("scadr: load thought: %w", err)
			}
		}
	}
	if users <= cfg.SubsPerUser {
		return users, nil // graph too small for the requested fan-out
	}
	for u := 0; u < users; u++ {
		name := UserName(u)
		added := 0
		for added < cfg.SubsPerUser {
			v := r.Intn(users)
			if v == u {
				continue
			}
			err := s.Exec(`INSERT INTO subscriptions VALUES (?, ?, ?)`,
				value.Str(name), value.Str(UserName(v)), value.Bool(r.Intn(10) != 0))
			if err != nil {
				// Random collision on (owner, target): retry another target.
				continue
			}
			added++
		}
	}
	return users, nil
}

// Worker executes SCADr home-page interactions for one client thread.
type Worker struct {
	cfg     Config
	session *engine.Session
	users   int
	rng     *rand.Rand
	ts      int64

	usersFollowed  *engine.Prepared
	recentThoughts *engine.Prepared
	thoughtstream  *engine.Prepared
	findUser       *engine.Prepared
}

// NewWorker prepares the benchmark queries for one client thread.
func NewWorker(s *engine.Session, cfg Config, users int, seed int64) (*Worker, error) {
	w := &Worker{
		cfg:     cfg,
		session: s,
		users:   users,
		rng:     rand.New(rand.NewSource(seed)),
		ts:      2_000_000 + seed*1_000_000,
	}
	qs := queries(cfg)
	var err error
	if w.usersFollowed, err = s.Prepare(qs["usersFollowed"]); err != nil {
		return nil, err
	}
	if w.recentThoughts, err = s.Prepare(qs["recentThoughts"]); err != nil {
		return nil, err
	}
	if w.thoughtstream, err = s.Prepare(qs["thoughtstream"]); err != nil {
		return nil, err
	}
	if w.findUser, err = s.Prepare(qs["findUser"]); err != nil {
		return nil, err
	}
	return w, nil
}

// Interaction renders one home page for a random user: all four read
// queries, plus (1% of the time) posting a new thought.
func (w *Worker) Interaction() error {
	me := value.Str(UserName(w.rng.Intn(w.users)))
	if _, err := w.findUser.Execute(w.session, me); err != nil {
		return err
	}
	if _, err := w.usersFollowed.Execute(w.session, me); err != nil {
		return err
	}
	if _, err := w.recentThoughts.Execute(w.session, me); err != nil {
		return err
	}
	if _, err := w.thoughtstream.Execute(w.session, me); err != nil {
		return err
	}
	if w.rng.Intn(100) == 0 {
		w.ts++
		if err := w.session.Exec(`INSERT INTO thoughts VALUES (?, ?, ?)`,
			me, value.Int(w.ts), value.Str("a fresh thought")); err != nil {
			return err
		}
	}
	return nil
}

// Thoughtstream runs just the headline query for a random user (used by
// per-query latency measurements).
func (w *Worker) Thoughtstream() error {
	me := value.Str(UserName(w.rng.Intn(w.users)))
	_, err := w.thoughtstream.Execute(w.session, me)
	return err
}

// Queries exposes the prepared statements keyed by the Table 1 row
// names, for per-query latency measurement.
func (w *Worker) Queries() map[string]*engine.Prepared {
	return map[string]*engine.Prepared{
		"Users Followed":  w.usersFollowed,
		"Recent Thoughts": w.recentThoughts,
		"Thoughtstream":   w.thoughtstream,
		"Find User":       w.findUser,
	}
}

// RandomUser picks a uniform user parameter.
func (w *Worker) RandomUser() value.Value {
	return value.Str(UserName(w.rng.Intn(w.users)))
}
