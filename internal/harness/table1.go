package harness

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"piql/internal/engine"
	"piql/internal/exec"
	"piql/internal/kvstore"
	"piql/internal/predict"
	"piql/internal/sim"
	"piql/internal/stats"
	"piql/internal/workload/scadr"
	"piql/internal/workload/tpcw"
)

// QuerySpec is one Table 1 row: a prepared query plus a parameter
// generator.
type QuerySpec struct {
	Name string
	SQL  string
	Gen  func(r *rand.Rand) []valueT
}

type valueT = valueValue

// Table1Row is one measured/predicted query.
type Table1Row struct {
	Benchmark string
	Name      string
	Indexes   []string
	Actual99  time.Duration
	Predicted time.Duration
}

// Table1Config sizes the Table 1 experiment: per-query latencies
// measured on a 10-node cluster across intervals (actual = max
// per-interval 99th percentile, as the paper reports), compared with
// the trained model's prediction.
type Table1Config struct {
	Nodes      int
	Intervals  int
	IntervalMS int // virtual milliseconds per interval
	PerQuery   int // executions per query per interval
	Seed       int64
}

// DefaultTable1Config mirrors the paper's 10-node setup, scaled.
func DefaultTable1Config() Table1Config {
	return Table1Config{Nodes: 10, Intervals: 12, IntervalMS: 4000, PerQuery: 40, Seed: 3}
}

// RunTable1 measures every TPC-W and SCADr query from Table 1 and
// predicts each with the model.
func RunTable1(model *predict.Model, cfg Table1Config) ([]Table1Row, error) {
	var rows []Table1Row
	tp, err := runTable1TPCW(model, cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, tp...)
	sc, err := runTable1SCADr(model, cfg)
	if err != nil {
		return nil, err
	}
	return append(rows, sc...), nil
}

// measureQueries runs each prepared query repeatedly per interval and
// returns the max per-interval 99th percentile per query.
func measureQueries(env *sim.Env, eng *engine.Engine, specs []preparedSpec, cfg Table1Config) map[string]time.Duration {
	interval := time.Duration(cfg.IntervalMS) * time.Millisecond
	perInterval := make(map[string][][]time.Duration) // name -> interval -> samples
	for _, sp := range specs {
		perInterval[sp.name] = make([][]time.Duration, cfg.Intervals)
	}
	env.Spawn(func(p *sim.Proc) {
		s := eng.Session(p)
		s.SetStrategy(exec.Parallel)
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0xBEEF))
		for iv := 0; iv < cfg.Intervals; iv++ {
			intervalEnd := time.Duration(iv+1) * interval
			for rep := 0; rep < cfg.PerQuery; rep++ {
				for _, sp := range specs {
					t0 := p.Now()
					if _, err := sp.q.Execute(s, sp.gen(rng)...); err != nil {
						panic(fmt.Sprintf("harness: table1 %s: %v", sp.name, err))
					}
					perInterval[sp.name][iv] = append(perInterval[sp.name][iv], p.Now()-t0)
				}
				if remaining := intervalEnd - p.Now(); remaining > 0 {
					p.Sleep(remaining / time.Duration(cfg.PerQuery-rep))
				}
			}
			if p.Now() < intervalEnd {
				p.Sleep(intervalEnd - p.Now())
			}
		}
	})
	env.Run(0)
	env.Stop()

	out := make(map[string]time.Duration)
	for name, ivs := range perInterval {
		var worst time.Duration
		for _, samples := range ivs {
			if p99 := stats.Percentile(samples, 99); p99 > worst {
				worst = p99
			}
		}
		out[name] = worst
	}
	return out
}

type preparedSpec struct {
	name string
	q    *engine.Prepared
	gen  func(r *rand.Rand) []valueT
}

func runTable1TPCW(model *predict.Model, cfg Table1Config) ([]Table1Row, error) {
	env := sim.NewEnv()
	cluster := kvstore.New(kvstore.Config{Nodes: cfg.Nodes, ReplicationFactor: 2, Seed: cfg.Seed}, env)
	eng := engine.New(cluster)
	loader := eng.Session(nil)
	wcfg := tpcw.DefaultConfig()
	wcfg.CustomersPerNode = 300
	for _, ddl := range tpcw.DDL(wcfg) {
		if err := loader.Exec(ddl); err != nil {
			return nil, err
		}
	}
	customers, items, err := tpcw.Load(loader, wcfg, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	// Seed a shopping cart for the Buy Request row.
	for i := 0; i < 25; i++ {
		if err := loader.Exec(`INSERT INTO cart_line VALUES (?, ?, ?)`,
			intV(777), intV(int64(i)), intV(1)); err != nil {
			return nil, err
		}
	}

	names := tpcwTable1Order
	sqls := tpcw.QuerySQL()
	gens := tpcwGens(customers, items)
	var specs []preparedSpec
	for _, name := range names {
		q, err := loader.Prepare(sqls[name])
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", name, err)
		}
		specs = append(specs, preparedSpec{name: name, q: q, gen: gens[name]})
	}
	cluster.Rebalance()
	actuals := measureQueries(env, eng, specs, cfg)

	var rows []Table1Row
	for _, sp := range specs {
		pred, err := sp.q.Bound().Predict(model)
		if err != nil {
			return nil, fmt.Errorf("predict %s: %w", sp.name, err)
		}
		rows = append(rows, Table1Row{
			Benchmark: "TPC-W",
			Name:      sp.name,
			Indexes:   secondaryIndexNames(sp.q),
			Actual99:  actuals[sp.name],
			Predicted: pred.Max99,
		})
	}
	return rows, nil
}

var tpcwTable1Order = []string{
	"Home WI",
	"New Products WI",
	"Product Detail WI",
	"Search By Author WI",
	"Search By Title WI",
	"Order Display WI Get Customer",
	"Order Display WI Get Last Order",
	"Order Display WI Get OrderLines",
	"Buy Request WI",
}

func tpcwGens(customers, items int) map[string]func(*rand.Rand) []valueT {
	uname := func(r *rand.Rand) []valueT { return []valueT{strV(tpcw.CustomerName(r.Intn(customers)))} }
	item := func(r *rand.Rand) []valueT { return []valueT{intV(int64(r.Intn(items)))} }
	return map[string]func(*rand.Rand) []valueT{
		"Home WI":           uname,
		"New Products WI":   func(r *rand.Rand) []valueT { return []valueT{strV(tpcw.Subjects[r.Intn(len(tpcw.Subjects))])} },
		"Product Detail WI": item,
		"Search By Author WI": func(r *rand.Rand) []valueT {
			return []valueT{intV(int64(r.Intn(items/10 + 1)))}
		},
		"Search By Title WI": func(r *rand.Rand) []valueT {
			words := []string{"shadow", "river", "night", "garden", "empire"}
			return []valueT{strV(words[r.Intn(len(words))])}
		},
		"Order Display WI Get Customer":   uname,
		"Order Display WI Get Last Order": uname,
		"Order Display WI Get OrderLines": func(r *rand.Rand) []valueT { return []valueT{intV(int64(1 + r.Intn(customers)))} },
		"Buy Request WI":                  func(r *rand.Rand) []valueT { return []valueT{intV(777)} },
	}
}

func runTable1SCADr(model *predict.Model, cfg Table1Config) ([]Table1Row, error) {
	env := sim.NewEnv()
	cluster := kvstore.New(kvstore.Config{Nodes: cfg.Nodes, ReplicationFactor: 2, Seed: cfg.Seed + 1}, env)
	eng := engine.New(cluster)
	loader := eng.Session(nil)
	wcfg := scadr.DefaultConfig()
	wcfg.UsersPerNode = 500
	for _, ddl := range scadr.DDL(wcfg) {
		if err := loader.Exec(ddl); err != nil {
			return nil, err
		}
	}
	users, err := scadr.Load(loader, wcfg, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	worker, err := scadr.NewWorker(loader, wcfg, users, 1)
	if err != nil {
		return nil, err
	}
	gen := func(r *rand.Rand) []valueT { return []valueT{strV(scadr.UserName(r.Intn(users)))} }
	var specs []preparedSpec
	order := []string{"Users Followed", "Recent Thoughts", "Thoughtstream", "Find User"}
	qs := worker.Queries()
	for _, name := range order {
		specs = append(specs, preparedSpec{name: name, q: qs[name], gen: gen})
	}
	cluster.Rebalance()
	actuals := measureQueries(env, eng, specs, cfg)

	var rows []Table1Row
	for _, sp := range specs {
		pred, err := sp.q.Bound().Predict(model)
		if err != nil {
			return nil, fmt.Errorf("predict %s: %w", sp.name, err)
		}
		rows = append(rows, Table1Row{
			Benchmark: "SCADr",
			Name:      sp.name,
			Indexes:   secondaryIndexNames(sp.q),
			Actual99:  actuals[sp.name],
			Predicted: pred.Max99,
		})
	}
	return rows, nil
}

// secondaryIndexNames lists the non-primary indexes a plan reads, as
// Table 1's "Additional Indexes" column does.
func secondaryIndexNames(q *engine.Prepared) []string {
	var out []string
	for _, ix := range q.Plan().RequiredIndexes {
		if !ix.Primary {
			out = append(out, ix.String())
		}
	}
	sort.Strings(out)
	return out
}

// PrintTable1 renders the table.
func PrintTable1(out io.Writer, rows []Table1Row) {
	fmt.Fprintln(out, "Table 1: per-query actual vs predicted 99th-percentile response time")
	fmt.Fprintf(out, "%-8s %-33s %12s %14s  %s\n", "bench", "query", "actual (ms)", "predicted (ms)", "additional indexes")
	var diffs []float64
	for _, r := range rows {
		fmt.Fprintf(out, "%-8s %-33s %12.0f %14.0f  %s\n",
			r.Benchmark, r.Name, msF(r.Actual99), msF(r.Predicted), strings.Join(r.Indexes, "; "))
		diffs = append(diffs, msF(r.Predicted)-msF(r.Actual99))
	}
	var sum float64
	over := 0
	for _, d := range diffs {
		sum += d
		if d >= 0 {
			over++
		}
	}
	fmt.Fprintf(out, "mean (predicted - actual) = %.1f ms; conservative (>=0) for %d/%d queries\n\n",
		sum/float64(len(diffs)), over, len(diffs))
}
