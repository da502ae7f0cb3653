// Package predict implements PIQL's SLO compliance prediction model
// (Section 6): per-operator response-time distributions Θ(α, β) captured
// as histograms during a training run, composed by convolution over
// the operator list a query's static bound hands it (analyze.Bound;
// the model itself knows no plan and no schema), evaluated per time
// interval to expose the cloud's tail-latency volatility (Fig. 5), and
// summarized as the distribution of per-interval 99th-percentile
// latencies.
package predict

import (
	"fmt"
	"time"
)

// BinWidth is the histogram resolution. The paper argues millisecond
// resolution suffices for interactive SLOs; the simulated cluster's
// per-op latencies sit around a millisecond, so we keep a few bins per
// millisecond.
const BinWidth = 250 * time.Microsecond

// maxBins caps a histogram at 8s of latency; anything slower clamps to
// the last bin (far beyond any interactive SLO).
const maxBins = 32000

// Histogram is a fixed-resolution latency histogram.
type Histogram struct {
	counts []float64
	total  float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{}
}

// Add records one observation.
func (h *Histogram) Add(d time.Duration) {
	h.AddWeighted(d, 1)
}

// AddWeighted records an observation with a fractional weight (used by
// distribution composition).
func (h *Histogram) AddWeighted(d time.Duration, w float64) {
	bin := int(d / BinWidth)
	if bin < 0 {
		bin = 0
	}
	if bin >= maxBins {
		bin = maxBins - 1
	}
	if bin >= len(h.counts) {
		grown := make([]float64, bin+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[bin] += w
	h.total += w
}

// N returns the total observation weight.
func (h *Histogram) N() float64 { return h.total }

// Quantile returns the latency at quantile p (0 < p <= 1), using the
// upper edge of the containing bin so predictions err conservative.
func (h *Histogram) Quantile(p float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	target := p * h.total
	cum := 0.0
	for bin, c := range h.counts {
		cum += c
		if cum >= target {
			return time.Duration(bin+1) * BinWidth
		}
	}
	return time.Duration(len(h.counts)) * BinWidth
}

// Mean returns the mean latency (bin centers).
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	sum := 0.0
	for bin, c := range h.counts {
		sum += c * (float64(bin) + 0.5)
	}
	return time.Duration(sum / h.total * float64(BinWidth))
}

// normalized returns bin probabilities.
func (h *Histogram) normalized() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = c / h.total
	}
	return out
}

// Convolve returns the distribution of the sum of two independent
// latencies — the composition rule for serial plan sections
// (Section 6.2). The result is renormalized to weight 1.
func Convolve(a, b *Histogram) *Histogram {
	if a == nil || a.total == 0 {
		return cloneNormalized(b)
	}
	if b == nil || b.total == 0 {
		return cloneNormalized(a)
	}
	pa, pb := a.normalized(), b.normalized()
	n := len(pa) + len(pb) - 1
	if n > maxBins {
		n = maxBins
	}
	out := &Histogram{counts: make([]float64, n)}
	for i, x := range pa {
		if x == 0 {
			continue
		}
		for j, y := range pb {
			if y == 0 {
				continue
			}
			bin := i + j
			if bin >= n {
				bin = n - 1
			}
			out.counts[bin] += x * y
		}
	}
	for _, c := range out.counts {
		out.total += c
	}
	return out
}

func cloneNormalized(h *Histogram) *Histogram {
	if h == nil {
		return NewHistogram()
	}
	out := &Histogram{counts: h.normalized(), total: 0}
	for _, c := range out.counts {
		out.total += c
	}
	return out
}

// SizeBytes reports the approximate storage footprint — the paper notes
// each histogram fits in a kilobyte or two at millisecond resolution.
func (h *Histogram) SizeBytes() int { return 8 * len(h.counts) }

func (h *Histogram) String() string {
	return fmt.Sprintf("Histogram{n=%.0f, p50=%v, p99=%v}", h.total, h.Quantile(0.50), h.Quantile(0.99))
}
