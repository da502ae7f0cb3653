package harness

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"piql/internal/engine"
	"piql/internal/exec"
	"piql/internal/kvstore"
	"piql/internal/sim"
	"piql/internal/stats"
	"piql/internal/value"
	"piql/internal/workload/tpcw"
)

// Fig12Result compares the three execution strategies (Section 8.5) on
// TPC-W with 10 storage nodes and 5 client machines: the full ordering
// mix, plus the New Products interaction alone — the fan-out query
// whose 50 dereferences and 50 foreign-key gets show exactly what limit
// hints (Lazy vs Simple) and intra-query parallelism (Simple vs
// Parallel) buy.
type Fig12Result struct {
	P99       map[exec.Strategy]time.Duration
	Mean      map[exec.Strategy]time.Duration
	FanOutP99 map[exec.Strategy]time.Duration
	// FanOutOps is the mean number of storage requests one New Products
	// execution issues — the executor round-trip budget made measurable.
	// Lazy pays per tuple; Simple and Parallel pay a constant number of
	// batched request sets per operator.
	FanOutOps map[exec.Strategy]float64
}

// RunFig12 measures interaction latency under each executor.
func RunFig12(seed int64) (*Fig12Result, error) {
	res := &Fig12Result{
		P99:       make(map[exec.Strategy]time.Duration),
		Mean:      make(map[exec.Strategy]time.Duration),
		FanOutP99: make(map[exec.Strategy]time.Duration),
		FanOutOps: make(map[exec.Strategy]float64),
	}
	wcfg := tpcw.DefaultConfig()
	wcfg.CustomersPerNode = 300
	for _, strat := range []exec.Strategy{exec.Lazy, exec.Simple, exec.Parallel} {
		cfg := ScaleConfig{
			NodeCounts:       []int{10},
			ThreadsPerClient: 10,
			Warmup:           time.Second,
			Measure:          3 * time.Second,
			Seed:             seed,
			Strategy:         strat,
			// Equal offered load for every strategy: without think time
			// the faster executors saturate the cluster and the
			// comparison measures queueing, not execution strategy.
			ThinkTime: 100 * time.Millisecond,
		}
		pt, err := RunScalePoint(TPCWWorkload(wcfg), cfg, 10)
		if err != nil {
			return nil, fmt.Errorf("fig12 %v: %w", strat, err)
		}
		res.P99[strat] = pt.P99
		res.Mean[strat] = pt.Mean
	}
	fan, fanOps, err := measureFanOutQuery(wcfg, seed)
	if err != nil {
		return nil, err
	}
	res.FanOutP99 = fan
	res.FanOutOps = fanOps
	return res, nil
}

// measureFanOutQuery runs the New Products WI alone under each strategy
// on a lightly loaded cluster, reporting p99 latency and mean storage
// requests per execution.
func measureFanOutQuery(wcfg tpcw.Config, seed int64) (map[exec.Strategy]time.Duration, map[exec.Strategy]float64, error) {
	r, err := newRig(kvstore.Config{Nodes: 10, ReplicationFactor: 2, Seed: seed}, sim.NewEnv(), tpcw.DDL(wcfg))
	if err != nil {
		return nil, nil, err
	}
	if _, _, err := tpcw.Load(r.loader, wcfg, 10); err != nil {
		return nil, nil, err
	}
	q, err := r.loader.Prepare(tpcw.QuerySQL()["New Products WI"])
	if err != nil {
		return nil, nil, err
	}
	r.cluster.Rebalance()

	const executions = 400
	out := make(map[exec.Strategy]time.Duration)
	outOps := make(map[exec.Strategy]float64)
	for _, strat := range []exec.Strategy{exec.Lazy, exec.Simple, exec.Parallel} {
		var lat []time.Duration
		err := r.run(func(p *sim.Proc, s *engine.Session) error {
			s.SetStrategy(strat)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < executions; i++ {
				subject := tpcw.Subjects[rng.Intn(len(tpcw.Subjects))]
				d, err := timed(p, s, q, value.Str(subject))
				if err != nil {
					return err
				}
				lat = append(lat, d)
				p.Sleep(25 * time.Millisecond)
			}
			outOps[strat] = float64(s.Client().Ops()) / executions
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		out[strat] = stats.Percentile(lat, 99)
	}
	return out, outOps, nil
}

// Print renders the comparison (paper: Lazy 639 > Simple 451 >
// Parallel 331 ms).
func (r *Fig12Result) Print(out io.Writer) {
	fmt.Fprintln(out, "Fig 12: TPC-W 99th-percentile response time by execution strategy")
	for _, strat := range []exec.Strategy{exec.Lazy, exec.Simple, exec.Parallel} {
		fmt.Fprintf(out, "%18s: mix p99 = %7.1f ms   mix mean = %6.1f ms   New Products WI p99 = %7.1f ms (%.1f reqs/exec)\n",
			strat, msF(r.P99[strat]), msF(r.Mean[strat]), msF(r.FanOutP99[strat]), r.FanOutOps[strat])
	}
	fmt.Fprintln(out)
}
