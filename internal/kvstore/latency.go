package kvstore

import (
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// The simulated per-operation latency of the cluster: the one model every
// experiment runs on, calibrated to resemble the EC2 numbers the paper
// reports — single-get round trips of a few milliseconds with a heavy
// right tail, plus interval-scale "cloud volatility".
const (
	// serviceMedian is the median node-side service time of a single get.
	serviceMedian = 900 * time.Microsecond
	// serviceSigma is the σ of the lognormal service-time distribution.
	serviceSigma = 0.45
	// perItem is the additional service time per tuple returned by a
	// range scan beyond the first.
	perItem = 18 * time.Microsecond
	// perByte is the additional transfer time per payload byte.
	perByte = 2 * time.Nanosecond
	// rttMedian is the median client<->node network round-trip time.
	rttMedian = 450 * time.Microsecond
	// rttSigma is the σ of the lognormal RTT distribution.
	rttSigma = 0.35
	// volatilityInterval is the length of a "cloud weather" interval;
	// each node draws a fresh service-time multiplier every interval.
	volatilityInterval = 30 * time.Second
	// volatilitySigma is the σ of the per-interval multiplier lognormal.
	volatilitySigma = 0.10
	// noisyNeighborProb is the chance a node spends an interval
	// co-located with a heavy tenant, inflating service times.
	noisyNeighborProb = 0.04
	// noisyNeighborFactor scales service time during such intervals.
	noisyNeighborFactor = 2.2
)

// lognormal samples exp(N(ln(median), sigma)).
func lognormal(rng *rng, median time.Duration, sigma float64) time.Duration {
	f := math.Exp(math.Log(float64(median)) + sigma*rng.normFloat64())
	return time.Duration(f)
}

// serviceTime samples the node-side processing time for a request
// touching the given number of items and payload bytes.
func serviceTime(rng *rng, items, bytes int) time.Duration {
	d := lognormal(rng, serviceMedian, serviceSigma)
	if items > 1 {
		d += time.Duration(items-1) * perItem
	}
	d += time.Duration(bytes) * perByte
	return d
}

// sampleRTT samples a network round-trip time.
func sampleRTT(rng *rng) time.Duration {
	return lognormal(rng, rttMedian, rttSigma)
}

// volatility returns the deterministic service-time multiplier for a node
// at virtual time t. The multiplier is piecewise-constant per interval so
// per-interval 99th-percentile latencies vary the way public-cloud tails
// do (Section 6.3 of the paper). It seeds a whole math/rand generator
// per call: that stream is what the paper-figure experiments were
// calibrated on, so it stays bit for bit (TestVolatilityGolden) while
// the clients and nodes draw from the value-type rng.
func volatility(seed int64, nodeID int, t time.Duration) float64 {
	interval := int64(t / volatilityInterval)
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
	m := math.Exp(rng.NormFloat64() * volatilitySigma)
	if rng.Float64() < noisyNeighborProb {
		m *= noisyNeighborFactor
	}
	return m
}
