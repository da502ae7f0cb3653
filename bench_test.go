// Benchmarks regenerating the paper's tables and figures as testing.B
// benchmarks — one per experiment, so `go test -bench=.` reproduces the
// evaluation. Each prints its rows/series through b.Log* on the first
// iteration; the heavyweight sweeps use reduced sizes here (cmd/piql-bench
// runs the full-fidelity versions).
package piql

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"piql/internal/harness"
	"piql/internal/predict"
	"piql/internal/workload/scadr"
	"piql/internal/workload/tpcw"
)

// trainedModel is shared across prediction benchmarks (training costs
// tens of seconds).
var (
	trainOnce    sync.Once
	trainedModel *predict.Model
	trainErr     error
)

func benchModel(b *testing.B) *predict.Model {
	b.Helper()
	trainOnce.Do(func() {
		cfg := predict.DefaultTrainConfig()
		cfg.Intervals = 8
		cfg.RepsPerInterval = 5
		trainedModel, trainErr = predict.Train(cfg)
	})
	if trainErr != nil {
		b.Fatal(trainErr)
	}
	return trainedModel
}

// BenchmarkTable1PredictionAccuracy regenerates Table 1: per-query
// actual vs predicted 99th-percentile response time.
func BenchmarkTable1PredictionAccuracy(b *testing.B) {
	model := benchModel(b)
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultTable1Config()
		cfg.Intervals = 4
		cfg.PerQuery = 15
		rows, err := harness.RunTable1(model, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-8s %-33s actual=%5.0fms predicted=%5.0fms",
					r.Benchmark, r.Name, ms(r.Actual99), ms(r.Predicted))
			}
		}
	}
}

// BenchmarkFig1QueryClasses regenerates Figure 1: relevant data vs
// database size per scaling class.
func BenchmarkFig1QueryClasses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunFig1([]int{100, 1000, 10000}, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("users=%6d classI=%d classII=%d classIII=%d classIV=%d",
					r.Users, r.ClassI, r.ClassII, r.ClassIII, r.ClassIV)
			}
		}
	}
}

// BenchmarkFig6Heatmap regenerates Figure 6: the predicted thoughtstream
// latency heatmap plus measured subset.
func BenchmarkFig6Heatmap(b *testing.B) {
	model := benchModel(b)
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultFig6Config()
		cfg.Executions = 40
		res, err := harness.RunFig6(model, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("predicted corner cells: (100,10)=%.0fms (500,50)=%.0fms; mean(pred-actual)=%.0fms",
				ms(res.Predicted[0][0]),
				ms(res.Predicted[len(res.Predicted)-1][len(res.Predicted[0])-1]),
				ms(res.MeanDiff))
		}
	}
}

// BenchmarkFig7OptimizerComparison regenerates Figure 7: bounded
// lookups vs the cost-based unbounded scan across target popularity.
func BenchmarkFig7OptimizerComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultFig7Config()
		cfg.Subscribers = []int{0, 1000, 3000, 5000}
		cfg.Executions = 120
		points, err := harness.RunFig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range points {
				b.Logf("subscribers=%5d bounded=%6.1fms unbounded=%6.1fms",
					p.Subscribers, ms(p.BoundedP99), ms(p.UnboundedP99))
			}
		}
	}
}

// BenchmarkFig8And9TPCWScale regenerates Figures 8-9: TPC-W throughput
// and tail latency vs storage nodes.
func BenchmarkFig8And9TPCWScale(b *testing.B) {
	benchScale(b, harness.TPCWWorkload(smallTPCW()), "TPC-W")
}

// BenchmarkFig10And11SCADrScale regenerates Figures 10-11: SCADr
// throughput and tail latency vs storage nodes.
func BenchmarkFig10And11SCADrScale(b *testing.B) {
	benchScale(b, harness.SCADrWorkload(smallSCADr()), "SCADr")
}

func smallTPCW() tpcw.Config {
	cfg := tpcw.DefaultConfig()
	cfg.CustomersPerNode = 100
	cfg.Items = 2000
	return cfg
}

func smallSCADr() scadr.Config {
	cfg := scadr.DefaultConfig()
	cfg.UsersPerNode = 200
	return cfg
}

func benchScale(b *testing.B, w harness.Workload, name string) {
	for i := 0; i < b.N; i++ {
		cfg := harness.ScaleConfig{
			NodeCounts:       []int{8, 16, 24},
			ThreadsPerClient: 6,
			Warmup:           500 * time.Millisecond,
			Measure:          1500 * time.Millisecond,
			Seed:             1,
			Strategy:         ParallelExecutor,
		}
		res, err := harness.RunScale(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range res.Points {
				b.Logf("%s nodes=%3d WIPS=%7.0f p99=%6.1fms", name, p.Nodes, p.Throughput, ms(p.P99))
			}
			b.Logf("%s linear fit R²=%.5f", name, res.Fit.R2)
		}
	}
}

// BenchmarkConcurrentSessionsSCADr drives 1..16 goroutine sessions of
// the SCADr mix against one shared engine (immediate mode, wall clock)
// and reports aggregate QPS and p99 — the engine-concurrency benchmark,
// beyond the paper's figures.
func BenchmarkConcurrentSessionsSCADr(b *testing.B) {
	benchConcurrent(b, harness.SCADrWorkload(smallSCADr()), "SCADr")
}

// BenchmarkConcurrentSessionsTPCW is the TPC-W ordering-mix variant.
func BenchmarkConcurrentSessionsTPCW(b *testing.B) {
	benchConcurrent(b, harness.TPCWWorkload(smallTPCW()), "TPC-W")
}

func benchConcurrent(b *testing.B, w harness.Workload, name string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := harness.DefaultConcurrentConfig()
		cfg.InteractionsPerGoroutine = 150
		res, err := harness.RunConcurrent(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.QPS, "qps")
		b.ReportMetric(ms(last.P99), "p99-ms")
		if i == 0 {
			for _, p := range res.Points {
				b.Logf("%s goroutines=%3d QPS=%7.0f p99=%7.3fms mean=%7.3fms",
					name, p.Goroutines, p.QPS, ms(p.P99), ms(p.Mean))
			}
			b.Logf("%s speedup at best point: %.2fx over 1 goroutine", name, res.Speedup())
		}
	}
}

// BenchmarkFig12ExecutionStrategies regenerates Figure 12: the three
// executors' 99th-percentile latencies.
func BenchmarkFig12ExecutionStrategies(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig12(9)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range []Strategy{LazyExecutor, SimpleExecutor, ParallelExecutor} {
				b.Logf("%s mix-p99=%.1fms fanout-p99=%.1fms fanout-reqs/exec=%.1f",
					s, ms(res.P99[s]), ms(res.FanOutP99[s]), res.FanOutOps[s])
			}
		}
	}
}

// BenchmarkCompileThoughtstream measures raw compiler throughput on the
// paper's headline query (no I/O).
func BenchmarkCompileThoughtstream(b *testing.B) {
	db := Open(Config{Nodes: 2})
	db.MustExec(`CREATE TABLE users (username VARCHAR(20), PRIMARY KEY (username))`)
	db.MustExec(`CREATE TABLE subscriptions (owner VARCHAR(20), target VARCHAR(20), approved BOOLEAN,
		PRIMARY KEY (owner, target), FOREIGN KEY (target) REFERENCES users, CARDINALITY LIMIT 100 (owner))`)
	db.MustExec(`CREATE TABLE thoughts (owner VARCHAR(20), timestamp INT, text VARCHAR(140), PRIMARY KEY (owner, timestamp))`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Distinct text defeats the plan cache so the compiler runs.
		sql := fmt.Sprintf(`SELECT thoughts.* FROM subscriptions s JOIN thoughts
			WHERE thoughts.owner = s.target AND s.owner = [1: u] AND s.approved = true
			ORDER BY thoughts.timestamp DESC LIMIT %d`, 2+i%50)
		if _, err := db.Prepare(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// findUserQuery loads 1000 users on an immediate-mode cluster and
// prepares the Class I point query over them.
func findUserQuery(tb testing.TB) *Query {
	db := Open(Config{Nodes: 4})
	db.MustExec(`CREATE TABLE users (username VARCHAR(20), bio VARCHAR(140), PRIMARY KEY (username))`)
	for i := 0; i < 1000; i++ {
		db.MustExec(`INSERT INTO users VALUES (?, 'hi')`, Str(fmt.Sprintf("u%04d", i)))
	}
	q, err := db.Prepare(`SELECT * FROM users WHERE username = ?`)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// BenchmarkExecuteFindUser measures end-to-end execution of a Class I
// query in immediate mode (no simulated latency): pure engine overhead.
func BenchmarkExecuteFindUser(b *testing.B) {
	q := findUserQuery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Execute(Str(fmt.Sprintf("u%04d", i%1000))); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExecuteFindUserAllocs gates the benchmark's deterministic number:
// one iteration of BenchmarkExecuteFindUser, parameter formatting
// included, stays within 15 allocations. Not under the race detector,
// whose instrumentation allocates on its own account.
func TestExecuteFindUserAllocs(t *testing.T) {
	if raceDetector() {
		t.Skip("allocation counts differ under -race")
	}
	q := findUserQuery(t)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := q.Execute(Str(fmt.Sprintf("u%04d", i%1000))); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 15 {
		t.Fatalf("FindUser: %v allocs per execution, want <= 15", allocs)
	}
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	info, _ := debug.ReadBuildInfo()
	return info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
