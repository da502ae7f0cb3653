package harness

import (
	"fmt"
	"time"

	"piql/internal/engine"
	"piql/internal/kvstore"
	"piql/internal/sim"
	"piql/internal/value"
)

// rig is one experiment's set-up: a cluster, simulated when env is
// non-nil and in immediate mode when it is nil, the engine over it, and
// an immediate-mode loader session that has run the schema.
type rig struct {
	env     *sim.Env
	cluster *kvstore.Cluster
	eng     *engine.Engine
	loader  *engine.Session
}

// newRig builds the cluster and engine and runs ddl through the loader.
// It is the only place the harness calls kvstore.New or engine.New.
func newRig(cfg kvstore.Config, env *sim.Env, ddl []string) (*rig, error) {
	cluster := kvstore.New(cfg, env)
	eng := engine.New(cluster)
	r := &rig{env: env, cluster: cluster, eng: eng, loader: eng.Session(nil)}
	for _, d := range ddl {
		if err := r.loader.Exec(d); err != nil {
			return nil, fmt.Errorf("harness: ddl: %w", err)
		}
	}
	return r, nil
}

// loadWorkload builds a rig for w at nodes storage nodes and loads its
// data. One warm-up interaction then fills the plan cache and builds
// every index before the data spreads, and a rebalance repartitions
// evenly, as the SCADS Director would.
func loadWorkload(w Workload, nodes int, seed int64, env *sim.Env) (*rig, NewInteraction, error) {
	r, err := newRig(kvstore.Config{Nodes: nodes, ReplicationFactor: 2, Seed: seed}, env, w.DDL(nodes))
	if err != nil {
		return nil, nil, err
	}
	newInteraction, err := w.Load(r.loader, nodes)
	if err != nil {
		return nil, nil, err
	}
	if _, err := newInteraction(r.eng.Session(nil), -1); err != nil {
		return nil, nil, err
	}
	r.cluster.Rebalance()
	return r, newInteraction, nil
}

// run spawns one measuring process with its own session, runs the
// simulation until no process is left to wake, and returns the error
// body returned. Nothing is left parked, so the env needs no Stop and
// can run again.
func (r *rig) run(body func(p *sim.Proc, s *engine.Session) error) error {
	var err error
	r.env.Spawn(func(p *sim.Proc) { err = body(p, r.eng.Session(p)) })
	r.env.Run(0)
	return err
}

// timed executes q once with args and returns its virtual latency.
func timed(p *sim.Proc, s *engine.Session, q *engine.Prepared, args ...value.Value) (time.Duration, error) {
	t0 := p.Now()
	_, err := q.Execute(s, args...)
	return p.Now() - t0, err
}
