package harness

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"piql/internal/analyze"
	"piql/internal/core"
	"piql/internal/engine"
	"piql/internal/kvstore"
	"piql/internal/parser"
	"piql/internal/predict"
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

// fig7SQL is the subscriber-intersection query with an IN list of
// friends parameters.
func fig7SQL(friends int) string {
	params := make([]string, friends)
	for i := range params {
		params[i] = fmt.Sprintf("[%d]", i+2)
	}
	return fmt.Sprintf(fig7Query, strings.Join(params, ", "))
}

// Fig7Plans compiles the subscriber-intersection query both ways
// against a fresh catalog — for static analysis and SLO prediction
// without running a cluster: the PIQL bounded-random-lookup plan and the
// cost-based baseline's unbounded covering scan (one range request for
// the average user, which makes the scan look cheap).
func Fig7Plans(friends int) (bounded, unbounded *core.Plan, err error) {
	cat, err := catalogOf(fig7DDL)
	if err != nil {
		return nil, nil, err
	}
	stmt, err := parser.Parse(fig7SQL(friends))
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
	return bounded, unbounded, nil
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
	r, err := newRig(kvstore.Config{Nodes: cfg.Nodes, ReplicationFactor: 2, Seed: cfg.Seed}, sim.NewEnv(), fig7DDL)
	if err != nil {
		return nil, err
	}
	// One target user per popularity level, followed by that many fans.
	fan := 0
	for _, subs := range cfg.Subscribers {
		target := fmt.Sprintf("celeb%05d", subs)
		if err := r.loader.Exec(`INSERT INTO users VALUES (?, 'pw')`, value.Str(target)); err != nil {
			return nil, err
		}
		for i := 0; i < subs; i++ {
			fan++
			if err := r.loader.Exec(`INSERT INTO subscriptions VALUES (?, ?, true)`,
				value.Str(fmt.Sprintf("fan%07d", fan)), value.Str(target)); err != nil {
				return nil, err
			}
		}
	}

	// Both plans are prepared like any statement: the engine registers
	// and backfills the covering index the cost-based plan reads.
	sql := fig7SQL(cfg.Friends)
	bounded, err := r.loader.Prepare(sql)
	if err != nil {
		return nil, fmt.Errorf("fig7: PIQL plan: %w", err)
	}
	unbounded, err := r.loader.PrepareCostBased(sql)
	if err != nil {
		return nil, fmt.Errorf("fig7: cost-based plan: %w", err)
	}
	if unbounded.Bound().Bounded {
		return nil, fmt.Errorf("fig7: cost-based optimizer unexpectedly chose a bounded plan:\n%s", unbounded.Plan().Explain())
	}
	r.cluster.Rebalance()

	var points []Fig7Point
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, subs := range cfg.Subscribers {
		target := fmt.Sprintf("celeb%05d", subs)
		pt := Fig7Point{Subscribers: subs}
		err := r.run(func(p *sim.Proc, s *engine.Session) error {
			// measure returns plan's p99 and its mean operations per
			// execution.
			measure := func(plan *engine.Prepared) (time.Duration, int64, error) {
				var lat []time.Duration
				s.Client().ResetOps()
				for i := 0; i < cfg.Executions; i++ {
					d, err := timed(p, s, plan, fig7Args(rng, target, cfg.Friends, fan)...)
					if err != nil {
						return 0, 0, err
					}
					lat = append(lat, d)
					p.Sleep(5 * time.Millisecond)
				}
				return stats.Percentile(lat, 99), s.Client().Ops() / int64(cfg.Executions), nil
			}
			var err error
			if pt.BoundedP99, pt.BoundedOps, err = measure(bounded); err != nil {
				return err
			}
			pt.UnboundedP99, pt.UnboundedOps, err = measure(unbounded)
			return err
		})
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// fig7Args binds the intersection query: the target, then friends fans
// drawn from the first fans loaded.
func fig7Args(rng *rand.Rand, target string, friends, fans int) []value.Value {
	args := make([]value.Value, 0, friends+1)
	args = append(args, value.Str(target))
	for f := 0; f < friends; f++ {
		args = append(args, value.Str(fmt.Sprintf("fan%07d", 1+rng.Intn(max(1, fans)))))
	}
	return args
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

// PrintFig7Prediction sets the measured sweep against what is known
// before anything runs: both plans' static analyses and the PIQL plan's
// one predicted p99, which does not depend on the database's size. The
// cost-based plan analyzes as unbounded, so no prediction exists for it.
// The verdict says whether the prediction covered the worst measured
// p99; a miss means the trained model's intervals under-sampled the
// simulator's service-time volatility.
func PrintFig7Prediction(out io.Writer, model *predict.Model, friends int, points []Fig7Point) error {
	bounded, unbounded, err := Fig7Plans(friends)
	if err != nil {
		return err
	}
	bb, ub := analyze.Plan(bounded), analyze.Plan(unbounded)
	if !bb.Bounded {
		return fmt.Errorf("fig7: PIQL plan analyzed unbounded: %s", bb.Reason)
	}
	if ub.Bounded {
		return fmt.Errorf("fig7: cost-based plan analyzed bounded")
	}
	pred, err := bb.Predict(model)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "PIQL plan — static analysis:\n%s", bb)
	fmt.Fprintf(out, "predicted p99: mean %.1f ms, worst interval %.1f ms (one static prediction, independent of database size)\n\n",
		msF(pred.Mean99), msF(pred.Max99))
	fmt.Fprintf(out, "cost-based plan — static analysis:\n%s", ub)
	fmt.Fprintln(out, "no prediction exists: the operator chain has no closed-form bound.")

	var worst time.Duration
	for _, p := range points {
		worst = max(worst, p.BoundedP99)
	}
	verdict := "conservative (measured under prediction at every size)"
	switch {
	case worst > pred.Max99*5/4:
		verdict = fmt.Sprintf("VIOLATED by %.1f ms", msF(worst-pred.Max99))
	case worst > pred.Max99:
		verdict = "within the model's grid round-up tolerance"
	}
	fmt.Fprintf(out, "\nprediction vs worst measured PIQL p99: %.1f ms predicted, %.1f ms measured — %s\n\n",
		msF(pred.Max99), msF(worst), verdict)
	return nil
}
