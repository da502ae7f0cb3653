package harness

import (
	"fmt"
	"io"
	"sync"
	"time"

	"piql/internal/stats"
)

// ConcurrentConfig controls the real-goroutine throughput harness: the
// same workloads as the scale sweeps, but driven by OS threads against
// one shared engine in immediate mode (no simulated latency), measuring
// wall-clock aggregate QPS and tail latency. This is the proof that one
// engine serves concurrent sessions — throughput should grow with the
// goroutine count instead of serializing on an engine-wide lock. Every
// session runs the engine's default, the ParallelExecutor.
type ConcurrentConfig struct {
	// Nodes is the simulated cluster size (data volume scales with it).
	Nodes int
	// Goroutines are the session counts to sweep.
	Goroutines []int
	// InteractionsPerGoroutine fixes the work per session, so total work
	// (and ideally throughput) scales with the goroutine count.
	InteractionsPerGoroutine int
	// Seed drives data generation and worker mixes.
	Seed int64
}

// DefaultConcurrentConfig sweeps 1..16 sessions.
func DefaultConcurrentConfig() ConcurrentConfig {
	return ConcurrentConfig{
		Nodes:                    4,
		Goroutines:               []int{1, 2, 4, 8, 16},
		InteractionsPerGoroutine: 300,
		Seed:                     1,
	}
}

// ConcurrentPoint is one measured goroutine count.
type ConcurrentPoint struct {
	Goroutines   int
	Interactions int
	Elapsed      time.Duration
	QPS          float64 // aggregate interactions per wall-clock second
	P99          time.Duration
	Mean         time.Duration
	StoreOps     int64 // key/value operations issued during the point
}

// ConcurrentResult is a full sweep over goroutine counts on one shared
// engine.
type ConcurrentResult struct {
	Workload string
	Points   []ConcurrentPoint
}

// Speedup reports the throughput of the busiest point relative to the
// single-goroutine baseline.
func (r *ConcurrentResult) Speedup() float64 {
	if len(r.Points) < 2 || r.Points[0].QPS == 0 {
		return 1
	}
	best := r.Points[0].QPS
	for _, p := range r.Points[1:] {
		if p.QPS > best {
			best = p.QPS
		}
	}
	return best / r.Points[0].QPS
}

// RunConcurrent loads the workload once, then for each configured count
// spawns that many goroutines — each with its own engine session — and
// measures aggregate throughput and latency percentiles under real
// parallelism. Worker IDs are unique across the whole sweep so the
// workloads' writes (carts, orders, thoughts) never collide.
func RunConcurrent(w Workload, cfg ConcurrentConfig) (*ConcurrentResult, error) {
	r, newInteraction, err := loadWorkload(w, cfg.Nodes, cfg.Seed, nil)
	if err != nil {
		return nil, err
	}
	res := &ConcurrentResult{Workload: w.Name}
	nextWorker := int64(0)
	for _, n := range cfg.Goroutines {
		pt, err := runConcurrentPoint(r, newInteraction, cfg, n, &nextWorker)
		if err != nil {
			return nil, fmt.Errorf("harness: %s at %d goroutines: %w", w.Name, n, err)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func runConcurrentPoint(r *rig, newInteraction NewInteraction, cfg ConcurrentConfig, n int, nextWorker *int64) (ConcurrentPoint, error) {
	latencies := make([][]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	opsBefore := r.cluster.TotalOps()
	start := time.Now()
	for g := 0; g < n; g++ {
		workerID := *nextWorker
		*nextWorker++
		wg.Add(1)
		//lint:allow goroleak — lifetime bounded by wg: joined by wg.Wait below, and its loop runs at most cfg.InteractionsPerGoroutine interactions.
		go func(g int, workerID int64) {
			defer wg.Done()
			interact, err := newInteraction(r.eng.Session(nil), workerID)
			if err != nil {
				errs[g] = err
				return
			}
			ls := make([]time.Duration, 0, cfg.InteractionsPerGoroutine)
			for i := 0; i < cfg.InteractionsPerGoroutine; i++ {
				t0 := time.Now()
				if err := interact(); err != nil {
					errs[g] = err
					return
				}
				ls = append(ls, time.Since(t0))
			}
			latencies[g] = ls
		}(g, workerID)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return ConcurrentPoint{}, err
		}
	}
	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	return ConcurrentPoint{
		Goroutines:   n,
		Interactions: len(all),
		Elapsed:      elapsed,
		QPS:          float64(len(all)) / elapsed.Seconds(),
		P99:          stats.Percentile(all, 99),
		Mean:         stats.Mean(all),
		StoreOps:     r.cluster.TotalOps() - opsBefore,
	}, nil
}

// Print renders the sweep: aggregate QPS and p99 per goroutine count.
func (r *ConcurrentResult) Print(out io.Writer) {
	fmt.Fprintf(out, "%s: aggregate throughput vs concurrent sessions (one engine, real goroutines)\n", r.Workload)
	fmt.Fprintf(out, "%12s %14s %12s %12s %12s\n", "goroutines", "interactions", "QPS", "p99 (ms)", "mean (ms)")
	for _, p := range r.Points {
		fmt.Fprintf(out, "%12d %14d %12.0f %12.3f %12.3f\n",
			p.Goroutines, p.Interactions, p.QPS, msF(p.P99), msF(p.Mean))
	}
	fmt.Fprintf(out, "speedup at best point: %.2fx over 1 goroutine\n\n", r.Speedup())
}
