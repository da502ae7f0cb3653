// Command piql-predict trains the SLO compliance model and prints the
// Figure 6 heatmap for the SCADr thoughtstream query, plus per-cell SLO
// verdicts — the Performance Insight Assistant's cardinality-sizing
// tool (Section 6.4):
//
//	piql-predict -slo 500ms -quantile 0.9
//
// With -fig7 it instead compares the static analyzer's predicted p99
// against measured p99 for the Figure 7 subscriber-intersection query:
// the PIQL plan's measured latency stays flat at every popularity
// level, while the cost-based plan analyzes as unbounded — no
// prediction exists, and its measured latency grows with the data. The
// final verdict reports whether the static prediction covered the
// worst measured p99; a miss means the trained model's intervals
// under-sampled the simulator's service-time volatility, the case for
// online recalibration (see ROADMAP).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"piql/internal/analyze"
	"piql/internal/harness"
	"piql/internal/predict"
	"piql/internal/stats"
)

func main() {
	slo := flag.Duration("slo", 500*time.Millisecond, "target 99th-percentile response time")
	quantile := flag.Float64("quantile", 0.9, "required fraction of compliant intervals")
	quick := flag.Bool("quick", false, "faster, coarser training")
	fig7 := flag.Bool("fig7", false, "compare predicted vs measured p99 for the Figure 7 plans")
	flag.Parse()

	cfg := predict.DefaultTrainConfig()
	if *quick {
		cfg.Intervals = 8
		cfg.RepsPerInterval = 5
	}
	fmt.Fprintf(os.Stderr, "training operator models (%d intervals)...\n", cfg.Intervals)
	model, err := predict.Train(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "piql-predict:", err)
		os.Exit(1)
	}

	if *fig7 {
		if err := runFig7Comparison(model, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "piql-predict:", err)
			os.Exit(1)
		}
		return
	}

	grid := harness.DefaultFig6Config()
	fmt.Printf("thoughtstream predicted p99 (ms); * = meets %v SLO in >=%.0f%% of intervals\n",
		*slo, *quantile*100)
	fmt.Printf("%10s", "subs\\page")
	for _, p := range grid.Pages {
		fmt.Printf("%7d", p)
	}
	fmt.Println()
	for _, subs := range grid.Subs {
		fmt.Printf("%10d", subs)
		for _, page := range grid.Pages {
			ops, err := harness.ThoughtstreamOps(subs, page)
			var pred *predict.Prediction
			if err == nil {
				pred, err = model.PredictOps(ops)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "piql-predict:", err)
				os.Exit(1)
			}
			mark := " "
			if pred.MeetsSLO(*slo, *quantile) {
				mark = "*"
			}
			fmt.Printf("%6.0f%s", float64(pred.Max99)/float64(time.Millisecond), mark)
		}
		fmt.Println()
	}
	fmt.Println("\npick any starred (subscriptions, page) pair to satisfy the SLO;")
	fmt.Println("the paper recommends treating it as a starting point and loosening later.")
}

// runFig7Comparison analyzes both Figure 7 plans statically, predicts
// the bounded plan's p99 from its bound, then measures both plans on a
// live simulated cluster across the popularity sweep.
func runFig7Comparison(model *predict.Model, quick bool) error {
	bounded, unbounded, err := harness.Fig7Plans(50)
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

	fmt.Println("\nPIQL plan — static analysis:")
	fmt.Print(bb.String())
	fmt.Printf("predicted p99: mean %.1f ms, worst interval %.1f ms (one static prediction, independent of database size)\n",
		ms(pred.Mean99), ms(pred.Max99))
	fmt.Println("\ncost-based plan — static analysis:")
	fmt.Print(ub.String())
	fmt.Println("no prediction exists: the operator chain has no closed-form bound.")

	hcfg := harness.DefaultFig7Config()
	if quick {
		hcfg.Subscribers = []int{0, 1000, 2000, 3000, 4000, 5000}
		hcfg.Executions = 100
	}
	fmt.Fprintln(os.Stderr, "\nmeasuring both plans on a live cluster...")
	points, err := harness.RunFig7(hcfg)
	if err != nil {
		return err
	}

	fmt.Printf("\n%12s %18s %18s %18s\n", "subscribers", "PIQL measured", "PIQL predicted", "cost measured")
	var measured []time.Duration
	for _, p := range points {
		fmt.Printf("%12d %16.1fms %16.1fms %16.1fms\n",
			p.Subscribers, ms(p.BoundedP99), ms(pred.Max99), ms(p.UnboundedP99))
		measured = append(measured, p.BoundedP99)
	}
	worst := stats.Percentile(measured, 100)
	verdict := "conservative (measured under prediction at every size)"
	switch {
	case worst > pred.Max99*5/4:
		verdict = fmt.Sprintf("VIOLATED by %.1f ms", ms(worst-pred.Max99))
	case worst > pred.Max99:
		verdict = "within the model's grid round-up tolerance"
	}
	fmt.Printf("\nprediction vs worst measured PIQL p99: %.1f ms predicted, %.1f ms measured — %s\n",
		ms(pred.Max99), ms(worst), verdict)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
