// Command piql-figures regenerates every table and figure from the
// paper's evaluation (Section 8) on the simulated cluster:
//
//	piql-figures -experiment all
//	piql-figures -experiment table1
//	piql-figures -experiment fig1|fig6|fig7|fig8-9|fig10-11|fig12
//
// table1, fig6 and fig7 train the SLO prediction model first, once.
// fig6 stars the (subscriptions, page size) cells of its heat map that
// meet -slo in at least -quantile of the model's intervals — the
// Performance Insight Assistant's cardinality-sizing tool (Section 6.4):
//
//	piql-figures -experiment fig6 -slo 500ms -quantile 0.9
//
// fig7 ends with the PIQL plan's one static prediction against its
// measured p99 at every popularity level; the cost-based plan analyzes
// as unbounded, so no prediction exists for it.
//
// Beyond the paper, -experiment concurrent runs the SCADr and TPC-W
// workloads from real concurrent goroutines against one shared engine
// (immediate mode, wall-clock time) and reports aggregate QPS and p99
// per session count — the engine-concurrency proof, not a paper figure.
// It is excluded from "all" since its numbers depend on host cores.
//
// -experiment faults runs the chaos storm under each of its two faults,
// harness.KillRestart (a node crashed mid-rebalance and restarted two
// rebalances later) and harness.Partition (a node partitioned away past
// its lease, its ranges reclaimed, then healed), on the simulated
// cluster, and reports the recovery evidence: catch-ups queued and
// replayed, ops retried, and the oracle's post-recovery audits. Each
// storm is a function of its seed.
//
// Absolute numbers come from the latency model of the simulated
// key/value store, not EC2 hardware; the shapes (linear scaling, flat
// tails, conservative predictions, bounded-vs-unbounded crossover,
// executor ordering) are the reproduction targets. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"piql/internal/harness"
	"piql/internal/predict"
	"piql/internal/workload/scadr"
	"piql/internal/workload/tpcw"
)

// experiments are the names -experiment accepts.
var experiments = []string{"all", "table1", "fig1", "fig6", "fig7", "fig8-9", "fig10-11", "fig12", "admission", "concurrent", "faults"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process exit: 0 on success, 1 when an
// experiment fails, 2 on a usage error, an unknown experiment name
// included.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("piql-figures", flag.ContinueOnError)
	fs.SetOutput(errOut)
	experiment := fs.String("experiment", "all", "which experiment to run: "+strings.Join(experiments, ", "))
	quick := fs.Bool("quick", false, "smaller sweeps for a fast smoke run")
	fig6 := harness.DefaultFig6Config()
	slo := fs.Duration("slo", fig6.SLO, "fig6: target 99th-percentile response time")
	quantile := fs.Float64("quantile", fig6.Quantile, "fig6: required fraction of compliant intervals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	name := strings.ToLower(*experiment)
	if !slices.Contains(experiments, name) {
		fmt.Fprintf(errOut, "piql-figures: unknown experiment %q\nvalid experiments: %s\n", *experiment, strings.Join(experiments, ", "))
		return 2
	}
	if err := runExperiments(out, name, *quick, *slo, *quantile); err != nil {
		fmt.Fprintln(errOut, "piql-figures:", err)
		return 1
	}
	return 0
}

func runExperiments(out io.Writer, experiment string, quick bool, slo time.Duration, quantile float64) error {
	run := func(name string) bool { return experiment == "all" || experiment == name }
	start := time.Now()

	var model *predict.Model
	if run("table1") || run("fig6") || run("fig7") {
		fmt.Fprintln(out, "training SLO prediction model (Section 6)...")
		cfg := predict.DefaultTrainConfig()
		if quick {
			cfg.Intervals = 8
			cfg.RepsPerInterval = 5
		}
		m, err := predict.Train(cfg)
		if err != nil {
			return err
		}
		model = m
		fmt.Fprintf(out, "model trained in %v\n\n", time.Since(start).Round(time.Second))
	}

	if run("table1") {
		cfg := harness.DefaultTable1Config()
		if quick {
			cfg.Intervals = 5
			cfg.PerQuery = 20
		}
		rows, err := harness.RunTable1(model, cfg)
		if err != nil {
			return err
		}
		harness.PrintTable1(out, rows)
	}

	if run("fig1") {
		sizes := []int{100, 1000, 10000, 50000}
		if quick {
			sizes = []int{100, 1000, 5000}
		}
		rows, err := harness.RunFig1(sizes, 5)
		if err != nil {
			return err
		}
		harness.PrintFig1(out, rows)
	}

	if run("fig6") {
		cfg := harness.DefaultFig6Config()
		cfg.SLO, cfg.Quantile = slo, quantile
		if quick {
			cfg.Executions = 60
		}
		res, err := harness.RunFig6(model, cfg)
		if err != nil {
			return err
		}
		res.Print(out)
	}

	if run("fig7") {
		cfg := harness.DefaultFig7Config()
		if quick {
			cfg.Subscribers = []int{0, 1000, 3000, 5000}
			cfg.Executions = 120
		}
		points, err := harness.RunFig7(cfg)
		if err != nil {
			return err
		}
		harness.PrintFig7(out, points)
		if err := harness.PrintFig7Prediction(out, model, cfg.Friends, points); err != nil {
			return err
		}
	}

	if run("fig8-9") {
		cfg := harness.DefaultScaleConfig()
		if quick {
			cfg.NodeCounts = []int{10, 20, 40}
			cfg.Measure = 2 * time.Second
		}
		res, err := harness.RunScale(harness.TPCWWorkload(tpcw.DefaultConfig()), cfg)
		if err != nil {
			return err
		}
		res.Print(out, "Fig 8", "Fig 9")
	}

	if run("fig10-11") {
		cfg := harness.DefaultScaleConfig()
		if quick {
			cfg.NodeCounts = []int{10, 20, 40}
			cfg.Measure = 2 * time.Second
		}
		res, err := harness.RunScale(harness.SCADrWorkload(scadr.DefaultConfig()), cfg)
		if err != nil {
			return err
		}
		res.Print(out, "Fig 10", "Fig 11")
	}

	if run("admission") {
		cfg := harness.DefaultAdmissionConfig()
		if quick {
			cfg.Subscribers = 2000
			cfg.GoodExecutions = 120
			cfg.BadWorkers = 24
			cfg.BadExecutions = 15
		}
		res, err := harness.RunAdmission(cfg)
		if err != nil {
			return err
		}
		harness.PrintAdmission(out, cfg, res)
	}

	if run("fig12") {
		res, err := harness.RunFig12(9)
		if err != nil {
			return err
		}
		res.Print(out)
	}

	// Not part of "all": wall-clock numbers depend on the host's cores.
	if experiment == "concurrent" {
		cfg := harness.DefaultConcurrentConfig()
		if quick {
			cfg.Goroutines = []int{1, 2, 4}
			cfg.InteractionsPerGoroutine = 100
		}
		scadrCfg := scadr.DefaultConfig()
		scadrCfg.UsersPerNode = 250
		res, err := harness.RunConcurrent(harness.SCADrWorkload(scadrCfg), cfg)
		if err != nil {
			return err
		}
		res.Print(out)

		tpcwCfg := tpcw.DefaultConfig()
		tpcwCfg.CustomersPerNode = 250
		tpcwCfg.Items = 5000
		res, err = harness.RunConcurrent(harness.TPCWWorkload(tpcwCfg), cfg)
		if err != nil {
			return err
		}
		res.Print(out)
	}

	if run("faults") {
		for _, sc := range []struct {
			name string
			f    harness.Fault
		}{
			{"node crash mid-rebalance, restart after two more", harness.KillRestart},
			{"partition with lease expiry + reclaim, then heal", harness.Partition},
		} {
			fmt.Fprintf(out, "fault injection: %s\n", sc.name)
			cfg := harness.DefaultChaosConfig()
			cfg.Fault = sc.f
			res, err := harness.RunChaos(cfg)
			if err != nil {
				return err
			}
			res.Print(out)
		}
	}

	fmt.Fprintf(out, "total: %v\n", time.Since(start).Round(time.Second))
	return nil
}
