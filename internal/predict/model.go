package predict

import (
	"fmt"
	"sort"
	"time"

	"piql/internal/stats"
)

// OpKind classifies the remote operators the model distinguishes
// (Section 6.1 models only remote operators: key/value round trips
// dominate interactive query latency).
type OpKind int

const (
	// KindLookup is a batch of parallel random gets: PKLookup and
	// IndexFKJoin (α keys of β bytes).
	KindLookup OpKind = iota
	// KindScan is one contiguous range read of α entries of β bytes.
	KindScan
	// KindSortedJoin is α parallel range reads of up to αj entries each,
	// the SortedIndexJoin access pattern.
	KindSortedJoin
)

func (k OpKind) String() string {
	switch k {
	case KindLookup:
		return "Lookup"
	case KindScan:
		return "IndexScan"
	case KindSortedJoin:
		return "SortedIndexJoin"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op describes one remote operator instance for prediction: the Θ(α, β)
// parameters of Section 6.1.
type Op struct {
	Kind   OpKind
	Alpha  int // tuples (for SortedJoin: child tuples αc)
	AlphaJ int // per-join-key tuples αj (SortedJoin only)
	Beta   int // bytes per tuple
}

// gridKey is a trained configuration.
type gridKey struct {
	kind   OpKind
	alpha  int
	alphaJ int
	beta   int
}

// Model holds trained per-operator, per-interval latency histograms.
type Model struct {
	// hists[key][interval] is the response-time distribution of one
	// operator configuration during one training interval.
	hists     map[gridKey][]*Histogram
	intervals int
	alphas    []int
	alphaJs   []int
	betas     []int
}

// Intervals returns the number of trained time intervals.
func (m *Model) Intervals() int { return m.intervals }

// roundUp picks the smallest grid value >= x (or the largest grid value)
// so the model never underestimates cardinality (Section 6.1).
func roundUp(grid []int, x int) int {
	for _, g := range grid {
		if g >= x {
			return g
		}
	}
	return grid[len(grid)-1]
}

// opHists returns the per-interval histograms for an operator, rounding
// its parameters up to the trained grid.
func (m *Model) opHists(op Op) ([]*Histogram, error) {
	key := gridKey{
		kind:  op.Kind,
		alpha: roundUp(m.alphas, op.Alpha),
		beta:  roundUp(m.betas, op.Beta),
	}
	if op.Kind == KindSortedJoin {
		key.alphaJ = roundUp(m.alphaJs, op.AlphaJ)
	}
	hs, ok := m.hists[key]
	if !ok {
		return nil, fmt.Errorf("predict: no trained model for %s(α=%d, αj=%d, β=%d)",
			op.Kind, key.alpha, key.alphaJ, key.beta)
	}
	return hs, nil
}

// Prediction is the model output for one query.
type Prediction struct {
	// Per99 holds the predicted 99th-percentile latency for each
	// training interval (Fig. 5c's distribution).
	Per99 []time.Duration
	// Max99 is the conservative summary the paper's Table 1 reports.
	Max99 time.Duration
	// Mean99 is the mean of the per-interval 99th percentiles.
	Mean99 time.Duration
}

// Quantile99 returns the q-th quantile of the per-interval
// 99th-percentile distribution (e.g. 0.9 answers: "in 90% of intervals
// the 99th percentile is below this").
func (p *Prediction) Quantile99(q float64) time.Duration {
	if len(p.Per99) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(p.Per99))
	copy(sorted, p.Per99)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return stats.PercentileSorted(sorted, q*100)
}

// MeetsSLO reports whether the query is predicted to satisfy "the 99th
// percentile stays under slo in at least fraction q of intervals".
func (p *Prediction) MeetsSLO(slo time.Duration, q float64) bool {
	return p.Quantile99(q) <= slo
}

// PredictOps composes operator distributions for a serial plan: per
// interval, convolve the operators' histograms and take the 99th
// percentile (Section 6.2-6.3).
func (m *Model) PredictOps(ops []Op) (*Prediction, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("predict: no remote operators")
	}
	perOp := make([][]*Histogram, len(ops))
	for i, op := range ops {
		hs, err := m.opHists(op)
		if err != nil {
			return nil, err
		}
		perOp[i] = hs
	}
	pred := &Prediction{}
	var sum time.Duration
	for iv := 0; iv < m.intervals; iv++ {
		var q *Histogram
		for _, hs := range perOp {
			q = Convolve(q, hs[iv])
		}
		p99 := q.Quantile(0.99)
		pred.Per99 = append(pred.Per99, p99)
		if p99 > pred.Max99 {
			pred.Max99 = p99
		}
		sum += p99
	}
	pred.Mean99 = sum / time.Duration(m.intervals)
	return pred, nil
}
