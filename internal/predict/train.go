package predict

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"piql/internal/codec"
	"piql/internal/kvstore"
	"piql/internal/sim"
	"piql/internal/value"
)

// TrainConfig controls model training (Section 8.6: the paper trains on
// a 10-node, two-fold-replicated cluster over 35 ten-minute intervals).
// The statistics are application-independent: operators are sampled
// against synthetic calibration data.
type TrainConfig struct {
	Nodes             int
	ReplicationFactor int
	Seed              int64
	Intervals         int
	IntervalLength    time.Duration
	RepsPerInterval   int
	Alphas            []int // tuple-count grid (α and αc)
	AlphaJs           []int // per-join-key grid (αj)
	Betas             []int // tuple-size grid (bytes)
}

// DefaultTrainConfig mirrors the paper's setup, scaled for simulation:
// 10 nodes, replication 2, an interval per SLO window.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Nodes:             10,
		ReplicationFactor: 2,
		Seed:              1,
		Intervals:         16,
		IntervalLength:    time.Minute,
		RepsPerInterval:   5,
		Alphas:            []int{1, 5, 10, 25, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500},
		AlphaJs:           []int{1, 10, 25, 50},
		Betas:             []int{40, 200, 600},
	}
}

// FastTrainConfig returns a cheaper configuration (seconds, not
// minutes) for interactive use — the public API's TrainSLOModel uses
// it. The grid is coarser, so predictions round up more aggressively.
func FastTrainConfig() TrainConfig {
	return TrainConfig{
		Nodes:             10,
		ReplicationFactor: 2,
		Seed:              1,
		Intervals:         8,
		IntervalLength:    30 * time.Second,
		RepsPerInterval:   4,
		Alphas:            []int{1, 5, 10, 25, 50, 100, 250, 500},
		AlphaJs:           []int{1, 10, 25, 50},
		Betas:             []int{40, 200, 600},
	}
}

// quickTrainConfig returns a small configuration for tests.
func quickTrainConfig() TrainConfig {
	return TrainConfig{
		Nodes:             4,
		ReplicationFactor: 2,
		Seed:              1,
		Intervals:         4,
		IntervalLength:    10 * time.Second,
		RepsPerInterval:   6,
		Alphas:            []int{1, 10, 50},
		AlphaJs:           []int{1, 10},
		Betas:             []int{40, 200},
	}
}

// calibration key layout: cal:<beta>:<kind>:<prefix>:<item>.
func calKey(beta int, deep bool, prefix, item int) []byte {
	kind := int64(0)
	if deep {
		kind = 1
	}
	return codec.EncodeKey(value.Row{
		value.Str("cal"),
		value.Int(int64(beta)),
		value.Int(kind),
		value.Int(int64(prefix)),
		value.Int(int64(item)),
	}, nil)
}

func calPrefix(beta int, deep bool, prefix int) []byte {
	kind := int64(0)
	if deep {
		kind = 1
	}
	return codec.EncodeKey(value.Row{
		value.Str("cal"),
		value.Int(int64(beta)),
		value.Int(kind),
		value.Int(int64(prefix)),
	}, nil)
}

const (
	deepPrefixes    = 8   // prefixes with enough items for big scans
	shallowPrefixes = 520 // prefixes for sorted-join fan-out
)

// Train builds a simulated cluster, loads calibration data, samples
// every operator configuration repeatedly in every interval, and
// returns the trained model.
func Train(cfg TrainConfig) (*Model, error) {
	if cfg.Intervals <= 0 || cfg.RepsPerInterval <= 0 {
		return nil, fmt.Errorf("predict: training needs at least one interval and rep")
	}
	maxAlpha := cfg.Alphas[len(cfg.Alphas)-1]
	maxAlphaJ := cfg.AlphaJs[len(cfg.AlphaJs)-1]

	env := sim.NewEnv()
	cluster := kvstore.New(kvstore.Config{
		Nodes:             cfg.Nodes,
		ReplicationFactor: cfg.ReplicationFactor,
		Seed:              cfg.Seed,
	}, env)

	// Bulk-load calibration data in immediate mode.
	loader := cluster.NewClient(nil)
	for _, beta := range cfg.Betas {
		payload := make([]byte, beta)
		for i := range payload {
			payload[i] = byte(i)
		}
		for p := 0; p < deepPrefixes; p++ {
			for i := 0; i < maxAlpha+1; i++ {
				if err := loader.Put(calKey(beta, true, p, i), payload); err != nil {
					return nil, err
				}
			}
		}
		for p := 0; p < shallowPrefixes; p++ {
			for i := 0; i < maxAlphaJ+1; i++ {
				if err := loader.Put(calKey(beta, false, p, i), payload); err != nil {
					return nil, err
				}
			}
		}
	}
	cluster.Rebalance()

	model := &Model{
		hists:     make(map[gridKey][]*Histogram),
		intervals: cfg.Intervals,
		alphas:    cfg.Alphas,
		alphaJs:   cfg.AlphaJs,
		betas:     cfg.Betas,
	}
	histFor := func(key gridKey, interval int) *Histogram {
		hs, ok := model.hists[key]
		if !ok {
			hs = make([]*Histogram, cfg.Intervals)
			for i := range hs {
				hs[i] = NewHistogram()
			}
			model.hists[key] = hs
		}
		return hs[interval]
	}

	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x7E57))
	// A sample whose read failed measured nothing, so the first failure
	// ends training (no fault is injected here: it would mean a bug).
	var trainErr error
	note := func(err error) {
		if trainErr == nil {
			trainErr = err
		}
	}
	env.Spawn(func(p *sim.Proc) {
		cl := cluster.NewClient(p)
		for interval := 0; interval < cfg.Intervals && trainErr == nil; interval++ {
			intervalEnd := time.Duration(interval+1) * cfg.IntervalLength
			for rep := 0; rep < cfg.RepsPerInterval && trainErr == nil; rep++ {
				for _, beta := range cfg.Betas {
					for _, alpha := range cfg.Alphas {
						// Lookup(α, β): batched parallel random gets.
						keys := make([][]byte, alpha)
						for i := range keys {
							keys[i] = calKey(beta, false, rng.Intn(shallowPrefixes), rng.Intn(maxAlphaJ))
						}
						t0 := p.Now()
						_, err := cl.ReadBatch(keys, kvstore.ReadOpts{Parallel: true})
						note(err)
						histFor(gridKey{kind: KindLookup, alpha: alpha, beta: beta}, interval).Add(p.Now() - t0)

						// Scan(α, β): one contiguous range read.
						prefix := calPrefix(beta, true, rng.Intn(deepPrefixes))
						t0 = p.Now()
						_, err = cl.Scan(kvstore.RangeRequest{Start: prefix, End: codec.PrefixEnd(prefix), Limit: alpha}, kvstore.ReadOpts{})
						note(err)
						histFor(gridKey{kind: KindScan, alpha: alpha, beta: beta}, interval).Add(p.Now() - t0)

						// SortedJoin(αc, αj, β): αc parallel bounded ranges.
						for _, alphaJ := range cfg.AlphaJs {
							fns := make([]func(*kvstore.Client), alpha)
							errs := make([]error, alpha) // one slot per branch
							for i := range fns {
								pfx := calPrefix(beta, false, rng.Intn(shallowPrefixes))
								fns[i] = func(sub *kvstore.Client) {
									_, errs[i] = sub.Scan(kvstore.RangeRequest{Start: pfx, End: codec.PrefixEnd(pfx), Limit: alphaJ, Reverse: true}, kvstore.ReadOpts{})
								}
							}
							t0 = p.Now()
							cl.Parallel(fns...)
							note(errors.Join(errs...))
							histFor(gridKey{kind: KindSortedJoin, alpha: alpha, alphaJ: alphaJ, beta: beta}, interval).Add(p.Now() - t0)
						}
					}
				}
				// Spread the reps across the interval so samples see its
				// whole volatility window.
				if remaining := intervalEnd - p.Now(); remaining > 0 {
					p.Sleep(remaining / time.Duration(cfg.RepsPerInterval-rep))
				}
			}
			if p.Now() < intervalEnd {
				p.Sleep(intervalEnd - p.Now())
			}
		}
	})
	env.Run(0)
	env.Stop()
	if trainErr != nil {
		return nil, fmt.Errorf("predict: training read failed: %w", trainErr)
	}
	return model, nil
}
