package harness

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"piql/internal/analyze"
	"piql/internal/kvstore"
	"piql/internal/sim"
	"piql/internal/stats"
	"piql/internal/value"
)

// AdmissionConfig sizes the multi-tenant admission-control scenario: a
// well-behaved tenant runs the bounded Figure 7 intersection query
// while a misbehaving tenant hammers the same cluster with the
// cost-based optimizer's unbounded covering scan of a popular user's
// subscriber list. With enforcement off the scan monopolizes the node
// service queues and inflates the good tenant's tail; with enforcement
// on the bad tenant is refused at Prepare with *analyze.ErrUnbounded
// and the good tenant's p99 returns to its solo baseline.
type AdmissionConfig struct {
	Nodes          int
	Subscribers    int // popularity of the user the bad tenant scans
	Friends        int // good tenant's IN-list size
	GoodExecutions int // per phase
	BadWorkers     int // concurrent sessions of the misbehaving tenant
	BadExecutions  int // scan attempts per bad worker per phase
	Seed           int64
}

// DefaultAdmissionConfig is sized so the unbounded scan visibly
// degrades the good tenant on a small cluster: the bad tenant runs
// enough concurrent sessions to saturate the nodes' service capacity
// (each node serves 12 requests at a time).
func DefaultAdmissionConfig() AdmissionConfig {
	return AdmissionConfig{
		Nodes:          4,
		Subscribers:    3000,
		Friends:        50,
		GoodExecutions: 200,
		BadWorkers:     32,
		BadExecutions:  25,
		Seed:           23,
	}
}

// AdmissionResult reports the good tenant's p99 across the three
// phases, plus what happened to the misbehaving tenant.
type AdmissionResult struct {
	BaselineP99  time.Duration // good tenant alone, no bad tenant
	ContendedP99 time.Duration // bad tenant running, enforcement off
	EnforcedP99  time.Duration // bad tenant refused, enforcement on
	BadScans     int           // unbounded scans executed while unenforced
	Refusals     int           // Prepare refusals while enforced
	RefusalErr   error         // representative *analyze.ErrUnbounded
}

const admissionBadSQL = `SELECT * FROM subscriptions WHERE target = [1: t]`

// RunAdmission loads one highly popular user and runs the three
// phases on a shared engine. The simulation is deterministic for a
// given config.
func RunAdmission(cfg AdmissionConfig) (*AdmissionResult, error) {
	r, err := newRig(kvstore.Config{Nodes: cfg.Nodes, ReplicationFactor: 2, Seed: cfg.Seed}, sim.NewEnv(), fig7DDL)
	if err != nil {
		return nil, err
	}
	const target = "celeb"
	if err := r.loader.Exec(`INSERT INTO users VALUES (?, 'pw')`, value.Str(target)); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Subscribers; i++ {
		if err := r.loader.Exec(`INSERT INTO subscriptions VALUES (?, ?, true)`,
			value.Str(fmt.Sprintf("fan%07d", i+1)), value.Str(target)); err != nil {
			return nil, err
		}
	}

	// The good tenant's bounded plan: intersection over an IN list.
	goodSQL := fig7SQL(cfg.Friends)

	// Warm both plans in immediate mode so index builds happen before
	// the clock starts; the unbounded plan is admitted because no
	// enforcement is installed yet.
	if _, err := r.loader.Prepare(goodSQL); err != nil {
		return nil, err
	}
	if _, err := r.loader.PrepareCostBased(admissionBadSQL); err != nil {
		return nil, err
	}
	r.cluster.Rebalance()

	res := &AdmissionResult{}
	phase := func(withBad, enforce bool) (time.Duration, error) {
		if enforce {
			r.eng.SetAdmission(&analyze.Policy{Enforce: true})
		} else {
			r.eng.SetAdmission(&analyze.Policy{})
		}
		var goodLat []time.Duration
		var goodErr, badErr error
		r.env.Spawn(func(p *sim.Proc) {
			s := r.eng.Session(p)
			q, err := s.Prepare(goodSQL)
			if err != nil {
				goodErr = err
				return
			}
			rng := rand.New(rand.NewSource(cfg.Seed + 1))
			for i := 0; i < cfg.GoodExecutions; i++ {
				lat, err := timed(p, s, q, fig7Args(rng, target, cfg.Friends, cfg.Subscribers)...)
				if err != nil {
					goodErr = err
					return
				}
				goodLat = append(goodLat, lat)
				p.Sleep(2 * time.Millisecond)
			}
		})
		if withBad {
			for w := 0; w < cfg.BadWorkers; w++ {
				r.env.Spawn(func(p *sim.Proc) {
					s := r.eng.Session(p)
					for i := 0; i < cfg.BadExecutions; i++ {
						q, err := s.PrepareCostBased(admissionBadSQL)
						if err != nil {
							var unb *analyze.ErrUnbounded
							if errors.As(err, &unb) {
								res.Refusals++
								res.RefusalErr = err
								p.Sleep(2 * time.Millisecond)
								continue
							}
							badErr = err
							return
						}
						if _, err := q.Execute(s, value.Str(target)); err != nil {
							badErr = err
							return
						}
						res.BadScans++
					}
				})
			}
		}
		r.env.Run(0)
		if goodErr != nil {
			return 0, goodErr
		}
		if badErr != nil {
			return 0, badErr
		}
		return stats.Percentile(goodLat, 99), nil
	}

	if res.BaselineP99, err = phase(false, false); err != nil {
		return nil, err
	}
	if res.ContendedP99, err = phase(true, false); err != nil {
		return nil, err
	}
	if res.EnforcedP99, err = phase(true, true); err != nil {
		return nil, err
	}
	return res, nil
}

// PrintAdmission renders the three phases and the refusal.
func PrintAdmission(out io.Writer, cfg AdmissionConfig, res *AdmissionResult) {
	fmt.Fprintf(out, "admission control: good tenant p99 across phases (%d-node cluster, %d-subscriber scan)\n",
		cfg.Nodes, cfg.Subscribers)
	fmt.Fprintf(out, "%34s %12.1fms\n", "baseline (good tenant alone)", msF(res.BaselineP99))
	fmt.Fprintf(out, "%34s %12.1fms  (%d unbounded scans ran)\n",
		"contended (enforcement off)", msF(res.ContendedP99), res.BadScans)
	fmt.Fprintf(out, "%34s %12.1fms  (%d/%d Prepares refused)\n",
		"enforced (unbounded refused)", msF(res.EnforcedP99), res.Refusals, cfg.BadWorkers*cfg.BadExecutions)
	if res.RefusalErr != nil {
		fmt.Fprintf(out, "refusal: %v\n", res.RefusalErr)
	}
	fmt.Fprintln(out)
}
