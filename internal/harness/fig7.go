package harness

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"piql/internal/core"
	"piql/internal/engine"
	"piql/internal/exec"
	"piql/internal/index"
	"piql/internal/kvstore"
	"piql/internal/parser"
	"piql/internal/schema"
	"piql/internal/sim"
	"piql/internal/stats"
	"piql/internal/value"
)

// Fig7Config sizes the subscriber-intersection comparison (Section 8.3):
// the scale-independent bounded-random-lookup plan versus the
// cost-based unbounded-index-scan plan, swept over target popularity.
type Fig7Config struct {
	Subscribers []int // popularity sweep (paper: 0..5000)
	Friends     int   // size of the IN list (paper: 50)
	Executions  int   // per point per plan
	Nodes       int
	Seed        int64
}

// DefaultFig7Config mirrors the paper's sweep.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{
		Subscribers: []int{0, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000},
		Friends:     50,
		Executions:  300,
		Nodes:       10,
		Seed:        17,
	}
}

// Fig7Point is one popularity level.
type Fig7Point struct {
	Subscribers  int
	BoundedP99   time.Duration // PIQL plan
	UnboundedP99 time.Duration // cost-based plan
	BoundedOps   int64
	UnboundedOps int64
}

const fig7Query = `
	SELECT * FROM subscriptions
	WHERE target = [1: targetUser] AND owner IN (%s)`

// fig7DDL is the two-table schema both RunFig7 and Fig7Plans compile
// against.
var fig7DDL = []string{
	`CREATE TABLE users (username VARCHAR(24), password VARCHAR(20), PRIMARY KEY (username))`,
	`CREATE TABLE subscriptions (owner VARCHAR(24), target VARCHAR(24), approved BOOLEAN,
		PRIMARY KEY (owner, target),
		FOREIGN KEY (target) REFERENCES users,
		CARDINALITY LIMIT 100 (owner))`,
}

// fig7Plans compiles the subscriber-intersection query both ways
// against cat: the PIQL bounded-random-lookup plan and the cost-based
// baseline's unbounded covering scan (one range request for the
// average user, which makes the scan look cheap).
func fig7Plans(cat *schema.Catalog, friends int) (bounded, unbounded *core.Plan, err error) {
	params := make([]string, friends)
	for i := range params {
		params[i] = fmt.Sprintf("[%d]", i+2)
	}
	sql := fmt.Sprintf(fig7Query, joinStrings(params, ", "))
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	sel := stmt.(*parser.Select)
	bounded, err = core.Compile(cat, sel)
	if err != nil {
		return nil, nil, fmt.Errorf("fig7: PIQL plan: %w", err)
	}
	unbounded, err = core.CompileCostBased(cat, sel)
	if err != nil {
		return nil, nil, fmt.Errorf("fig7: cost-based plan: %w", err)
	}
	if unbounded.OpBound() != core.Unbounded {
		return nil, nil, fmt.Errorf("fig7: cost-based optimizer unexpectedly chose a bounded plan:\n%s", unbounded.Explain())
	}
	return bounded, unbounded, nil
}

// Fig7Plans compiles the two Figure 7 plans against a fresh catalog —
// for static analysis and SLO prediction without running a cluster.
func Fig7Plans(friends int) (bounded, unbounded *core.Plan, err error) {
	cat, err := catalogOf(fig7DDL)
	if err != nil {
		return nil, nil, err
	}
	return fig7Plans(cat, friends)
}

// catalogOf builds a catalog from CREATE TABLE statements: a schema to
// compile against, with no cluster behind it.
func catalogOf(ddl []string) (*schema.Catalog, error) {
	cat := schema.NewCatalog()
	for _, d := range ddl {
		stmt, err := parser.Parse(d)
		if err != nil {
			return nil, err
		}
		if err := cat.AddTable(stmt.(*parser.CreateTable).Table); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// RunFig7 loads users of increasing popularity and measures both plans.
func RunFig7(cfg Fig7Config) ([]Fig7Point, error) {
	env := sim.NewEnv()
	cluster := kvstore.New(kvstore.Config{Nodes: cfg.Nodes, ReplicationFactor: 2, Seed: cfg.Seed}, env)
	eng := engine.New(cluster)
	loader := eng.Session(nil)
	for _, ddl := range fig7DDL {
		if err := loader.Exec(ddl); err != nil {
			return nil, err
		}
	}
	// One target user per popularity level, followed by that many fans.
	fan := 0
	for _, subs := range cfg.Subscribers {
		target := fmt.Sprintf("celeb%05d", subs)
		if err := loader.Exec(`INSERT INTO users VALUES (?, 'pw')`, value.Str(target)); err != nil {
			return nil, err
		}
		for i := 0; i < subs; i++ {
			fan++
			if err := loader.Exec(`INSERT INTO subscriptions VALUES (?, ?, true)`,
				value.Str(fmt.Sprintf("fan%07d", fan)), value.Str(target)); err != nil {
				return nil, err
			}
		}
	}

	// Build both plans for the IN list, compiling against a private
	// clone: published catalog snapshots are immutable, and the compiler
	// registers the indexes it creates.
	cat := eng.Catalog().Clone()
	bounded, unbounded, err := fig7Plans(cat, cfg.Friends)
	if err != nil {
		return nil, err
	}
	// Backfill any indexes the plans created (the by-target index).
	maint := index.NewMaintainer(cat)
	for _, plan := range []*core.Plan{bounded, unbounded} {
		for _, ix := range plan.RequiredIndexes {
			if _, err := maint.Backfill(loader.Client(), ix); err != nil {
				return nil, err
			}
		}
	}
	cluster.Rebalance()

	var points []Fig7Point
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, subs := range cfg.Subscribers {
		target := fmt.Sprintf("celeb%05d", subs)
		pt := Fig7Point{Subscribers: subs}
		var runErr error
		env.Spawn(func(p *sim.Proc) {
			cl := cluster.NewClient(p)
			run := func(plan *core.Plan) ([]time.Duration, int64) {
				var lat []time.Duration
				cl.ResetOps()
				for i := 0; i < cfg.Executions; i++ {
					args := make([]value.Value, 0, cfg.Friends+1)
					args = append(args, value.Str(target))
					for f := 0; f < cfg.Friends; f++ {
						args = append(args, value.Str(fmt.Sprintf("fan%07d", 1+rng.Intn(max(1, fan)))))
					}
					t0 := p.Now()
					if _, err := exec.Run(plan, &exec.Ctx{Client: cl, Params: args, Strategy: exec.Parallel}); err != nil {
						runErr = err
						return lat, cl.Ops()
					}
					lat = append(lat, p.Now()-t0)
					p.Sleep(5 * time.Millisecond)
				}
				return lat, cl.Ops()
			}
			bl, bops := run(bounded)
			ul, uops := run(unbounded)
			pt.BoundedP99 = stats.Percentile(bl, 99)
			pt.UnboundedP99 = stats.Percentile(ul, 99)
			pt.BoundedOps = bops / int64(cfg.Executions)
			pt.UnboundedOps = uops / int64(cfg.Executions)
		})
		env.Run(0)
		if runErr != nil {
			return nil, runErr
		}
		points = append(points, pt)
	}
	env.Stop()
	return points, nil
}

func joinStrings(xs []string, sep string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += sep
		}
		out += x
	}
	return out
}

// PrintFig7 renders the comparison.
func PrintFig7(out io.Writer, points []Fig7Point) {
	fmt.Fprintln(out, "Fig 7: subscriber-intersection query, 99th-percentile response time (ms)")
	fmt.Fprintf(out, "%12s %22s %22s %12s %12s\n",
		"subscribers", "bounded lookups (PIQL)", "unbounded scan (cost)", "PIQL ops", "cost ops")
	for _, p := range points {
		fmt.Fprintf(out, "%12d %22.1f %22.1f %12d %12d\n",
			p.Subscribers, msF(p.BoundedP99), msF(p.UnboundedP99), p.BoundedOps, p.UnboundedOps)
	}
	fmt.Fprintln(out)
}
