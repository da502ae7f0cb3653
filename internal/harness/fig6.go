package harness

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"piql/internal/analyze"
	"piql/internal/core"
	"piql/internal/engine"
	"piql/internal/kvstore"
	"piql/internal/parser"
	"piql/internal/predict"
	"piql/internal/sim"
	"piql/internal/stats"
	"piql/internal/value"
	"piql/internal/workload/scadr"
)

// Fig6Config sizes the thoughtstream cardinality heatmap: predicted
// 99th-percentile latency for every (subscriptions per user, records
// per page) pair — the Performance Insight Assistant's tool for picking
// cardinality limits (Section 6.4).
type Fig6Config struct {
	Subs  []int // rows: number of subscriptions per user
	Pages []int // columns: records per page
	// Actual-measurement subset (full grid would take long).
	ActualSubs  []int
	ActualPages []int
	Executions  int
	Seed        int64
	// SLO and Quantile decide which cells the printed map stars: those
	// whose predicted p99 meets SLO in at least Quantile of the model's
	// intervals — the pairs a developer may pick as cardinality limits.
	SLO      time.Duration
	Quantile float64
}

// DefaultFig6Config mirrors the paper's axes.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		Subs:        []int{100, 150, 200, 250, 300, 350, 400, 450, 500},
		Pages:       []int{10, 15, 20, 25, 30, 35, 40, 45, 50},
		ActualSubs:  []int{100, 300, 500},
		ActualPages: []int{10, 30, 50},
		Executions:  150,
		Seed:        21,
		SLO:         500 * time.Millisecond,
		Quantile:    0.9,
	}
}

// Fig6Result holds the predicted heatmap and the measured subset.
type Fig6Result struct {
	Cfg       Fig6Config
	Predicted [][]time.Duration // [subIdx][pageIdx]
	MeetsSLO  [][]bool          // [subIdx][pageIdx]
	Actual    map[[2]int]time.Duration
	MeanDiff  time.Duration // mean (predicted - actual) over the subset
}

// ThoughtstreamOps compiles the SCADr thoughtstream query for a page of
// `page` records against the SCADr schema with at most subs
// subscriptions per user, and returns the operator parameters its
// static bound hands the SLO model — one heat-map cell's input.
func ThoughtstreamOps(subs, page int) ([]predict.Op, error) {
	cfg := scadr.DefaultConfig()
	cfg.MaxSubscriptions = subs
	cat, err := catalogOf(scadr.DDL(cfg))
	if err != nil {
		return nil, err
	}
	stmt, err := parser.Parse(scadr.ThoughtstreamSQL(page))
	if err != nil {
		return nil, err
	}
	plan, err := core.Compile(cat, stmt.(*parser.Select))
	if err != nil {
		return nil, err
	}
	return analyze.Plan(plan).PredictOps(), nil
}

// RunFig6 computes the predicted heatmap from the trained model and
// measures a subset of cells for the accuracy claim.
func RunFig6(model *predict.Model, cfg Fig6Config) (*Fig6Result, error) {
	res := &Fig6Result{Cfg: cfg, Actual: make(map[[2]int]time.Duration)}
	for _, subs := range cfg.Subs {
		var row []time.Duration
		var meets []bool
		for _, page := range cfg.Pages {
			ops, err := ThoughtstreamOps(subs, page)
			if err != nil {
				return nil, err
			}
			pred, err := model.PredictOps(ops)
			if err != nil {
				return nil, err
			}
			row = append(row, pred.Max99)
			meets = append(meets, pred.MeetsSLO(cfg.SLO, cfg.Quantile))
		}
		res.Predicted = append(res.Predicted, row)
		res.MeetsSLO = append(res.MeetsSLO, meets)
	}

	// Measure the subset on a live simulated cluster: owners with
	// exactly S subscriptions, targets with enough thoughts per page.
	maxSubs := cfg.ActualSubs[len(cfg.ActualSubs)-1]
	maxPage := cfg.ActualPages[len(cfg.ActualPages)-1]
	r, err := newRig(kvstore.Config{Nodes: 10, ReplicationFactor: 2, Seed: cfg.Seed}, sim.NewEnv(),
		scadr.DDL(scadr.Config{MaxSubscriptions: maxSubs}))
	if err != nil {
		return nil, err
	}
	// Shared target pool with thoughts.
	for tgt := 0; tgt < maxSubs; tgt++ {
		name := fmt.Sprintf("tgt%04d", tgt)
		if err := r.loader.Exec(`INSERT INTO users VALUES (?, 'pw', 'SF')`, value.Str(name)); err != nil {
			return nil, err
		}
		for i := 0; i <= maxPage; i++ {
			if err := r.loader.Exec(`INSERT INTO thoughts VALUES (?, ?, 'text of a thought that is reasonably sized for scadr')`,
				value.Str(name), value.Int(int64(1000+tgt*1000+i))); err != nil {
				return nil, err
			}
		}
	}
	// Owners per measured S: a handful each, subscribing to the first S
	// targets.
	const ownersPer = 4
	for _, subs := range cfg.ActualSubs {
		for o := 0; o < ownersPer; o++ {
			owner := fmt.Sprintf("own%d_%d", subs, o)
			if err := r.loader.Exec(`INSERT INTO users VALUES (?, 'pw', 'SF')`, value.Str(owner)); err != nil {
				return nil, err
			}
			for tgt := 0; tgt < subs; tgt++ {
				if err := r.loader.Exec(`INSERT INTO subscriptions VALUES (?, ?, true)`,
					value.Str(owner), value.Str(fmt.Sprintf("tgt%04d", tgt))); err != nil {
					return nil, err
				}
			}
		}
	}
	// Prepare one query per page size.
	plans := make(map[int]*engine.Prepared)
	for _, page := range cfg.ActualPages {
		q, err := r.loader.Prepare(scadr.ThoughtstreamSQL(page))
		if err != nil {
			return nil, err
		}
		plans[page] = q
	}
	r.cluster.Rebalance()

	samples := make(map[[2]int][]time.Duration)
	err = r.run(func(p *sim.Proc, s *engine.Session) error {
		rng := rand.New(rand.NewSource(cfg.Seed))
		for rep := 0; rep < cfg.Executions; rep++ {
			for _, subs := range cfg.ActualSubs {
				owner := fmt.Sprintf("own%d_%d", subs, rng.Intn(ownersPer))
				for _, page := range cfg.ActualPages {
					lat, err := timed(p, s, plans[page], value.Str(owner))
					if err != nil {
						return fmt.Errorf("harness: fig6: %w", err)
					}
					samples[[2]int{subs, page}] = append(samples[[2]int{subs, page}], lat)
				}
			}
			p.Sleep(40 * time.Millisecond) // spread across volatility windows
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var diffSum time.Duration
	n := 0
	for cell, lat := range samples {
		actual := stats.Percentile(lat, 99)
		res.Actual[cell] = actual
		pred := res.predictedFor(cell[0], cell[1])
		diffSum += pred - actual
		n++
	}
	if n > 0 {
		res.MeanDiff = diffSum / time.Duration(n)
	}
	return res, nil
}

func (r *Fig6Result) predictedFor(subs, page int) time.Duration {
	for i, s := range r.Cfg.Subs {
		if s != subs {
			continue
		}
		for j, p := range r.Cfg.Pages {
			if p == page {
				return r.Predicted[i][j]
			}
		}
	}
	return 0
}

// Print renders the heatmap the way Figure 6 does: subscriptions per
// user (rows) by records per page (columns), milliseconds per cell, the
// cells that meet the SLO starred (Section 6.4's cardinality sizing).
func (r *Fig6Result) Print(out io.Writer) {
	fmt.Fprintf(out, "Fig 6: predicted 99th-percentile latency (ms) for the thoughtstream query; * = meets %v SLO in >=%.0f%% of intervals\n",
		r.Cfg.SLO, r.Cfg.Quantile*100)
	fmt.Fprintf(out, "%22s", "subs\\page")
	for _, p := range r.Cfg.Pages {
		fmt.Fprintf(out, "%7d", p)
	}
	fmt.Fprintln(out)
	for i, subs := range r.Cfg.Subs {
		fmt.Fprintf(out, "%22d", subs)
		for j := range r.Cfg.Pages {
			mark := " "
			if r.MeetsSLO[i][j] {
				mark = "*"
			}
			fmt.Fprintf(out, "%6.0f%s", msF(r.Predicted[i][j]), mark)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out, "pick any starred (subscriptions, page) pair to satisfy the SLO;")
	fmt.Fprintln(out, "the paper recommends treating it as a starting point and loosening later.")
	fmt.Fprintln(out, "\nmeasured subset (actual 99th percentile, ms):")
	for _, subs := range r.Cfg.ActualSubs {
		for _, page := range r.Cfg.ActualPages {
			cell := [2]int{subs, page}
			fmt.Fprintf(out, "  subs=%3d page=%2d: actual=%5.0f predicted=%5.0f\n",
				subs, page, msF(r.Actual[cell]), msF(r.predictedFor(subs, page)))
		}
	}
	fmt.Fprintf(out, "mean (predicted - actual) over subset: %.0f ms (paper: +13 ms)\n\n", msF(r.MeanDiff))
}
