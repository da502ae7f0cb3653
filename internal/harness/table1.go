package harness

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"piql/internal/engine"
	"piql/internal/kvstore"
	"piql/internal/predict"
	"piql/internal/sim"
	"piql/internal/stats"
	"piql/internal/value"
	"piql/internal/workload/scadr"
	"piql/internal/workload/tpcw"
)

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
	tcfg := tpcw.DefaultConfig()
	tcfg.CustomersPerNode = 300
	tp, err := runTable1(model, cfg, "TPC-W", cfg.Seed, tpcw.DDL(tcfg),
		func(s *engine.Session) ([]preparedSpec, error) { return tpcwTable1(s, tcfg, cfg.Nodes) })
	if err != nil {
		return nil, err
	}
	scfg := scadr.DefaultConfig()
	scfg.UsersPerNode = 500
	sc, err := runTable1(model, cfg, "SCADr", cfg.Seed+1, scadr.DDL(scfg),
		func(s *engine.Session) ([]preparedSpec, error) { return scadrTable1(s, scfg, cfg.Nodes) })
	if err != nil {
		return nil, err
	}
	return append(tp, sc...), nil
}

type preparedSpec struct {
	name string
	q    *engine.Prepared
	gen  func(r *rand.Rand) []value.Value
}

// runTable1 measures one benchmark's rows: load fills the cluster
// through the loader session and prepares the benchmark's queries in
// the table's row order.
func runTable1(model *predict.Model, cfg Table1Config, bench string, seed int64, ddl []string,
	load func(loader *engine.Session) ([]preparedSpec, error)) ([]Table1Row, error) {
	r, err := newRig(kvstore.Config{Nodes: cfg.Nodes, ReplicationFactor: 2, Seed: seed}, sim.NewEnv(), ddl)
	if err != nil {
		return nil, err
	}
	specs, err := load(r.loader)
	if err != nil {
		return nil, err
	}
	r.cluster.Rebalance()
	actuals, err := measureQueries(r, specs, cfg)
	if err != nil {
		return nil, err
	}

	var rows []Table1Row
	for _, sp := range specs {
		pred, err := sp.q.Bound().Predict(model)
		if err != nil {
			return nil, fmt.Errorf("predict %s: %w", sp.name, err)
		}
		rows = append(rows, Table1Row{
			Benchmark: bench,
			Name:      sp.name,
			Indexes:   secondaryIndexNames(sp.q),
			Actual99:  actuals[sp.name],
			Predicted: pred.Max99,
		})
	}
	return rows, nil
}

// measureQueries runs each prepared query repeatedly per interval and
// returns the max per-interval 99th percentile per query.
func measureQueries(r *rig, specs []preparedSpec, cfg Table1Config) (map[string]time.Duration, error) {
	interval := time.Duration(cfg.IntervalMS) * time.Millisecond
	perInterval := make(map[string][][]time.Duration) // name -> interval -> samples
	for _, sp := range specs {
		perInterval[sp.name] = make([][]time.Duration, cfg.Intervals)
	}
	err := r.run(func(p *sim.Proc, s *engine.Session) error {
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0xBEEF))
		for iv := 0; iv < cfg.Intervals; iv++ {
			intervalEnd := time.Duration(iv+1) * interval
			for rep := 0; rep < cfg.PerQuery; rep++ {
				for _, sp := range specs {
					lat, err := timed(p, s, sp.q, sp.gen(rng)...)
					if err != nil {
						return fmt.Errorf("harness: table1 %s: %w", sp.name, err)
					}
					perInterval[sp.name][iv] = append(perInterval[sp.name][iv], lat)
				}
				if remaining := intervalEnd - p.Now(); remaining > 0 {
					p.Sleep(remaining / time.Duration(cfg.PerQuery-rep))
				}
			}
			if p.Now() < intervalEnd {
				p.Sleep(intervalEnd - p.Now())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

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
	return out, nil
}

// tpcwTable1 loads TPC-W, seeds a shopping cart for the Buy Request row,
// and prepares the TPC-W rows.
func tpcwTable1(loader *engine.Session, wcfg tpcw.Config, nodes int) ([]preparedSpec, error) {
	customers, items, err := tpcw.Load(loader, wcfg, nodes)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 25; i++ {
		if err := loader.Exec(`INSERT INTO cart_line VALUES (?, ?, ?)`,
			value.Int(777), value.Int(int64(i)), value.Int(1)); err != nil {
			return nil, err
		}
	}

	sqls := tpcw.QuerySQL()
	gens := tpcwGens(customers, items)
	var specs []preparedSpec
	for _, name := range tpcwTable1Order {
		q, err := loader.Prepare(sqls[name])
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", name, err)
		}
		specs = append(specs, preparedSpec{name: name, q: q, gen: gens[name]})
	}
	return specs, nil
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

func tpcwGens(customers, items int) map[string]func(*rand.Rand) []value.Value {
	uname := func(r *rand.Rand) []value.Value {
		return []value.Value{value.Str(tpcw.CustomerName(r.Intn(customers)))}
	}
	item := func(r *rand.Rand) []value.Value { return []value.Value{value.Int(int64(r.Intn(items)))} }
	return map[string]func(*rand.Rand) []value.Value{
		"Home WI": uname,
		"New Products WI": func(r *rand.Rand) []value.Value {
			return []value.Value{value.Str(tpcw.Subjects[r.Intn(len(tpcw.Subjects))])}
		},
		"Product Detail WI": item,
		"Search By Author WI": func(r *rand.Rand) []value.Value {
			return []value.Value{value.Int(int64(r.Intn(items/10 + 1)))}
		},
		"Search By Title WI": func(r *rand.Rand) []value.Value {
			words := []string{"shadow", "river", "night", "garden", "empire"}
			return []value.Value{value.Str(words[r.Intn(len(words))])}
		},
		"Order Display WI Get Customer":   uname,
		"Order Display WI Get Last Order": uname,
		"Order Display WI Get OrderLines": func(r *rand.Rand) []value.Value { return []value.Value{value.Int(int64(1 + r.Intn(customers)))} },
		"Buy Request WI":                  func(r *rand.Rand) []value.Value { return []value.Value{value.Int(777)} },
	}
}

// scadrTable1 loads SCADr and takes the SCADr rows from one worker's
// prepared queries.
func scadrTable1(loader *engine.Session, wcfg scadr.Config, nodes int) ([]preparedSpec, error) {
	users, err := scadr.Load(loader, wcfg, nodes)
	if err != nil {
		return nil, err
	}
	worker, err := scadr.NewWorker(loader, wcfg, users, 1)
	if err != nil {
		return nil, err
	}
	gen := func(r *rand.Rand) []value.Value { return []value.Value{value.Str(scadr.UserName(r.Intn(users)))} }
	var specs []preparedSpec
	qs := worker.Queries()
	for _, name := range []string{"Users Followed", "Recent Thoughts", "Thoughtstream", "Find User"} {
		specs = append(specs, preparedSpec{name: name, q: qs[name], gen: gen})
	}
	return specs, nil
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
