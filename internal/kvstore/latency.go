package kvstore

import (
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// LatencyConfig shapes the simulated per-operation latency of the cluster.
// Defaults (see DefaultLatency) are calibrated to resemble the EC2 numbers
// the paper reports: single-get round trips of a few milliseconds with a
// heavy right tail, plus interval-scale "cloud volatility".
type LatencyConfig struct {
	// ServiceMedian is the median node-side service time of a single get.
	ServiceMedian time.Duration
	// ServiceSigma is the σ of the lognormal service-time distribution.
	ServiceSigma float64
	// PerItem is the additional service time per tuple returned by a
	// range scan beyond the first.
	PerItem time.Duration
	// PerByte is the additional transfer time per payload byte.
	PerByte time.Duration
	// RTTMedian is the median client<->node network round-trip time.
	RTTMedian time.Duration
	// RTTSigma is the σ of the lognormal RTT distribution.
	RTTSigma float64
	// VolatilityInterval is the length of a "cloud weather" interval;
	// each node draws a fresh service-time multiplier every interval.
	VolatilityInterval time.Duration
	// VolatilitySigma is the σ of the per-interval multiplier lognormal.
	VolatilitySigma float64
	// NoisyNeighborProb is the chance a node spends an interval
	// co-located with a heavy tenant, inflating service times.
	NoisyNeighborProb float64
	// NoisyNeighborFactor scales service time during such intervals.
	NoisyNeighborFactor float64
}

// DefaultLatency returns the latency model used by all experiments.
func DefaultLatency() LatencyConfig {
	return LatencyConfig{
		ServiceMedian:       900 * time.Microsecond,
		ServiceSigma:        0.45,
		PerItem:             18 * time.Microsecond,
		PerByte:             2 * time.Nanosecond,
		RTTMedian:           450 * time.Microsecond,
		RTTSigma:            0.35,
		VolatilityInterval:  30 * time.Second,
		VolatilitySigma:     0.10,
		NoisyNeighborProb:   0.04,
		NoisyNeighborFactor: 2.2,
	}
}

// lognormal samples exp(N(ln(median), sigma)).
func lognormal(rng *rng, median time.Duration, sigma float64) time.Duration {
	f := math.Exp(math.Log(float64(median)) + sigma*rng.normFloat64())
	return time.Duration(f)
}

// serviceTime samples the node-side processing time for a request
// touching the given number of items and payload bytes.
func (c LatencyConfig) serviceTime(rng *rng, items, bytes int) time.Duration {
	d := lognormal(rng, c.ServiceMedian, c.ServiceSigma)
	if items > 1 {
		d += time.Duration(items-1) * c.PerItem
	}
	d += time.Duration(bytes) * c.PerByte
	return d
}

// rtt samples a network round-trip time.
func (c LatencyConfig) rtt(rng *rng) time.Duration {
	return lognormal(rng, c.RTTMedian, c.RTTSigma)
}

// volatility returns the deterministic service-time multiplier for a node
// at virtual time t. The multiplier is piecewise-constant per interval so
// per-interval 99th-percentile latencies vary the way public-cloud tails
// do (Section 6.3 of the paper). It seeds a whole math/rand generator
// per call: that stream is what the paper-figure experiments were
// calibrated on, so it stays bit for bit (TestVolatilityGolden) while
// the clients and nodes draw from the value-type rng.
func (c LatencyConfig) volatility(seed int64, nodeID int, t time.Duration) float64 {
	if c.VolatilityInterval <= 0 {
		return 1
	}
	interval := int64(t / c.VolatilityInterval)
	h := fnv.New64a()
	var buf [24]byte
	put64 := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	put64(0, uint64(seed))
	put64(8, uint64(nodeID))
	put64(16, uint64(interval))
	h.Write(buf[:])
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	m := math.Exp(rng.NormFloat64() * c.VolatilitySigma)
	if rng.Float64() < c.NoisyNeighborProb {
		m *= c.NoisyNeighborFactor
	}
	return m
}
