package harness

import (
	"piql/internal/engine"
	"piql/internal/workload/scadr"
	"piql/internal/workload/tpcw"
)

// SCADrWorkload builds the Figure 10/11 workload.
func SCADrWorkload(cfg scadr.Config) Workload {
	return Workload{
		Name: "SCADr",
		DDL:  func(nodes int) []string { return scadr.DDL(cfg) },
		Load: func(s *engine.Session, nodes int) (NewInteraction, error) {
			users, err := scadr.Load(s, cfg, nodes)
			if err != nil {
				return nil, err
			}
			return func(s *engine.Session, workerID int64) (func() error, error) {
				w, err := scadr.NewWorker(s, cfg, users, workerID+100)
				if err != nil {
					return nil, err
				}
				return w.Interaction, nil
			}, nil
		},
	}
}

// TPCWWorkload builds the Figure 8/9 workload (ordering mix).
func TPCWWorkload(cfg tpcw.Config) Workload {
	return Workload{
		Name: "TPC-W",
		DDL:  func(nodes int) []string { return tpcw.DDL(cfg) },
		Load: func(s *engine.Session, nodes int) (NewInteraction, error) {
			customers, items, err := tpcw.Load(s, cfg, nodes)
			if err != nil {
				return nil, err
			}
			return func(s *engine.Session, workerID int64) (func() error, error) {
				w, err := tpcw.NewWorker(s, cfg, customers, items, workerID+1)
				if err != nil {
					return nil, err
				}
				return w.Interaction, nil
			}, nil
		},
	}
}
