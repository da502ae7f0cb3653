// Package harness drives the paper's experiments (Section 8): the scale
// sweeps of Figures 8-11, the per-query prediction accuracy of Table 1,
// the cardinality heatmap of Figure 6, the optimizer comparison of
// Figure 7, the executor comparison of Figure 12, and the query scaling
// classes of Figure 1. Each driver prints the same rows/series the
// paper reports.
//
// Every driver builds its cluster, engine and schema with newRig (rig.go),
// on a sim.Env or, for the wall-clock runs, in immediate mode, and times
// its executions with rig.run and timed. A benchmark the scale and
// concurrent runners drive is a Workload: its schema, and a Load that
// fills the cluster and returns the function that builds one client
// thread's interaction; loadWorkload does schema, load, warm-up and
// rebalance for both runners.
package harness

import (
	"fmt"
	"io"
	"time"

	"piql/internal/engine"
	"piql/internal/exec"
	"piql/internal/sim"
	"piql/internal/stats"
)

// ScaleConfig controls a throughput/latency scale sweep. As in the
// paper: one client machine per two storage nodes, ten threads per
// client, data volume proportional to nodes, two-fold replication, and
// no think time.
type ScaleConfig struct {
	NodeCounts       []int
	ThreadsPerClient int
	Warmup           time.Duration
	Measure          time.Duration
	Seed             int64
	Strategy         exec.Strategy
	// ThinkTime, when non-zero, is slept between interactions. The scale
	// sweeps follow the paper and omit it; the executor comparison uses
	// it to offer every strategy the same load.
	ThinkTime time.Duration
}

// DefaultScaleConfig mirrors the paper's sweep (20-100 storage nodes).
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		NodeCounts:       []int{20, 40, 60, 80, 100},
		ThreadsPerClient: 10,
		Warmup:           time.Second,
		Measure:          3 * time.Second,
		Seed:             1,
		Strategy:         exec.Parallel,
	}
}

// Workload abstracts a benchmark for the scale and concurrent runners.
type Workload struct {
	Name string
	// DDL returns the schema statements.
	DDL func(nodes int) []string
	// Load bulk-loads data sized for the node count and returns the
	// function that builds a client thread's interaction on that data.
	Load func(s *engine.Session, nodes int) (NewInteraction, error)
}

// NewInteraction builds one client thread's interaction function on
// session s. workerID keeps the threads' writes apart; -1 is the
// warm-up.
type NewInteraction func(s *engine.Session, workerID int64) (func() error, error)

// ScalePoint is one measured cluster size.
type ScalePoint struct {
	Nodes        int
	Clients      int
	Interactions int
	Throughput   float64 // web interactions per second
	P99          time.Duration
	Mean         time.Duration
}

// RunScalePoint measures one cluster size: it builds a simulated
// cluster, loads proportional data, runs the client fleet on virtual
// time, and reports throughput and tail latency.
func RunScalePoint(w Workload, cfg ScaleConfig, nodes int) (ScalePoint, error) {
	r, newInteraction, err := loadWorkload(w, nodes, cfg.Seed, sim.NewEnv())
	if err != nil {
		return ScalePoint{}, err
	}

	clients := nodes / 2
	if clients < 1 {
		clients = 1
	}
	var latencies []time.Duration
	interactions := 0
	var runErr error
	end := cfg.Warmup + cfg.Measure

	for c := 0; c < clients; c++ {
		for th := 0; th < cfg.ThreadsPerClient; th++ {
			workerID := int64(c*cfg.ThreadsPerClient + th)
			r.env.Spawn(func(p *sim.Proc) {
				s := r.eng.Session(p)
				s.SetStrategy(cfg.Strategy)
				interact, err := newInteraction(s, workerID)
				if err != nil {
					if runErr == nil {
						runErr = err
					}
					return
				}
				for {
					t0 := p.Now()
					if err := interact(); err != nil {
						if runErr == nil {
							runErr = err
						}
						return
					}
					t1 := p.Now()
					if t1 > end {
						return
					}
					if t0 >= cfg.Warmup {
						latencies = append(latencies, t1-t0)
						interactions++
					}
					if cfg.ThinkTime > 0 {
						p.Sleep(cfg.ThinkTime)
					}
				}
			})
		}
	}
	r.env.Run(end)
	r.env.Stop()
	if runErr != nil {
		return ScalePoint{}, runErr
	}
	return ScalePoint{
		Nodes:        nodes,
		Clients:      clients,
		Interactions: interactions,
		Throughput:   float64(interactions) / cfg.Measure.Seconds(),
		P99:          stats.Percentile(latencies, 99),
		Mean:         stats.Mean(latencies),
	}, nil
}

// ScaleResult is a full sweep with its linearity fit.
type ScaleResult struct {
	Workload string
	Points   []ScalePoint
	Fit      stats.LinearFit // throughput vs nodes (the paper reports R²)
}

// RunScale sweeps all configured node counts.
func RunScale(w Workload, cfg ScaleConfig) (*ScaleResult, error) {
	res := &ScaleResult{Workload: w.Name}
	var xs, ys []float64
	for _, n := range cfg.NodeCounts {
		pt, err := RunScalePoint(w, cfg, n)
		if err != nil {
			return nil, fmt.Errorf("harness: %s at %d nodes: %w", w.Name, n, err)
		}
		res.Points = append(res.Points, pt)
		xs = append(xs, float64(n))
		ys = append(ys, pt.Throughput)
	}
	if len(xs) >= 2 {
		res.Fit = stats.FitLine(xs, ys)
	}
	return res, nil
}

// Print renders the sweep as the paper's two figures: throughput vs
// nodes (Figs. 8/10) and 99th-percentile response time vs nodes
// (Figs. 9/11).
func (r *ScaleResult) Print(out io.Writer, figThroughput, figLatency string) {
	fmt.Fprintf(out, "%s: %s throughput (web interactions/sec) vs storage nodes\n", figThroughput, r.Workload)
	fmt.Fprintf(out, "%8s %10s %14s %12s\n", "nodes", "clients", "interactions", "WIPS")
	for _, p := range r.Points {
		fmt.Fprintf(out, "%8d %10d %14d %12.0f\n", p.Nodes, p.Clients, p.Interactions, p.Throughput)
	}
	fmt.Fprintf(out, "linear fit: slope=%.1f WIPS/node, R²=%.5f\n\n", r.Fit.Slope, r.Fit.R2)

	fmt.Fprintf(out, "%s: %s response time vs storage nodes\n", figLatency, r.Workload)
	fmt.Fprintf(out, "%8s %14s %14s\n", "nodes", "99th pct (ms)", "mean (ms)")
	for _, p := range r.Points {
		fmt.Fprintf(out, "%8d %14.1f %14.1f\n", p.Nodes, msF(p.P99), msF(p.Mean))
	}
	fmt.Fprintln(out)
}

func msF(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
