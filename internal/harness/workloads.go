package harness

import (
	"piql/internal/engine"
	"piql/internal/workload/scadr"
	"piql/internal/workload/tpcw"
)

// scadrCtx carries loaded-data facts to the workers.
type scadrCtx struct {
	cfg   scadr.Config
	users int
}

// SCADrWorkload builds the Figure 10/11 workload.
func SCADrWorkload(cfg scadr.Config) Workload {
	return Workload{
		Name: "SCADr",
		DDL:  func(nodes int) []string { return scadr.DDL(cfg) },
		Load: func(s *engine.Session, nodes int) (any, error) {
			users, err := scadr.Load(s, cfg, nodes)
			if err != nil {
				return nil, err
			}
			return &scadrCtx{cfg: cfg, users: users}, nil
		},
		NewInteraction: func(s *engine.Session, ctx any, workerID int64) (func() error, error) {
			c := ctx.(*scadrCtx)
			w, err := scadr.NewWorker(s, c.cfg, c.users, workerID+100)
			if err != nil {
				return nil, err
			}
			return w.Interaction, nil
		},
	}
}

type tpcwCtx struct {
	cfg       tpcw.Config
	customers int
	items     int
}

// TPCWWorkload builds the Figure 8/9 workload (ordering mix).
func TPCWWorkload(cfg tpcw.Config) Workload {
	return Workload{
		Name: "TPC-W",
		DDL:  func(nodes int) []string { return tpcw.DDL(cfg) },
		Load: func(s *engine.Session, nodes int) (any, error) {
			customers, items, err := tpcw.Load(s, cfg, nodes)
			if err != nil {
				return nil, err
			}
			return &tpcwCtx{cfg: cfg, customers: customers, items: items}, nil
		},
		NewInteraction: func(s *engine.Session, ctx any, workerID int64) (func() error, error) {
			c := ctx.(*tpcwCtx)
			w, err := tpcw.NewWorker(s, c.cfg, c.customers, c.items, workerID+1)
			if err != nil {
				return nil, err
			}
			return w.Interaction, nil
		},
	}
}
