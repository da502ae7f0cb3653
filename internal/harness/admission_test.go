package harness

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"piql/internal/analyze"
	"piql/internal/engine"
	"piql/internal/kvstore"
	"piql/internal/workload/scadr"
	"piql/internal/workload/tpcw"
)

// TestAdmissionProtectsGoodTenant is the acceptance scenario: with
// enforcement off the unbounded covering scan inflates the bounded
// tenant's p99; with enforcement on every Prepare of the scan is
// refused with *analyze.ErrUnbounded and the bounded tenant's p99
// returns to (near) its solo baseline. The simulation is deterministic
// for a fixed config.
func TestAdmissionProtectsGoodTenant(t *testing.T) {
	cfg := AdmissionConfig{
		Nodes:          4,
		Subscribers:    2000,
		Friends:        30,
		GoodExecutions: 120,
		BadWorkers:     30,
		BadExecutions:  25,
		Seed:           23,
	}
	res, err := RunAdmission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BadScans == 0 {
		t.Fatal("contended phase ran no unbounded scans; scenario is vacuous")
	}
	if want := cfg.BadWorkers * cfg.BadExecutions; res.Refusals != want {
		t.Errorf("enforced phase refused %d/%d Prepares", res.Refusals, want)
	}
	var unb *analyze.ErrUnbounded
	if !errors.As(res.RefusalErr, &unb) {
		t.Fatalf("refusal error = %v (%T), want *analyze.ErrUnbounded", res.RefusalErr, res.RefusalErr)
	}
	const scan = `IndexScan(subscriptions(target, owner, approved), key=([1: t]), ascending=true, UNBOUNDED)`
	if unb.Operator != scan || !slices.Equal(unb.Chain, []string{scan}) {
		t.Errorf("refusal = %+v, want operator and chain %q", unb, scan)
	}
	// The scan must visibly hurt the good tenant, and enforcement must
	// undo the damage.
	if res.ContendedP99 < res.BaselineP99*3/2 {
		t.Errorf("unbounded scan did not degrade good tenant: baseline %v, contended %v",
			res.BaselineP99, res.ContendedP99)
	}
	if res.EnforcedP99 > res.BaselineP99*3/2 {
		t.Errorf("enforcement did not protect good tenant: baseline %v, enforced %v",
			res.BaselineP99, res.EnforcedP99)
	}
	if res.EnforcedP99 >= res.ContendedP99 {
		t.Errorf("enforced p99 %v not better than contended %v", res.EnforcedP99, res.ContendedP99)
	}
	var buf bytes.Buffer
	PrintAdmission(&buf, cfg, res)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

// TestWorkloadQueriesAllBounded classifies every prepared query of the
// SCADr and TPC-W workloads plus the Figure 7 pair: all application
// queries must analyze as bounded, and only the cost-based baseline's
// covering scan may analyze as unbounded.
func TestWorkloadQueriesAllBounded(t *testing.T) {
	check := func(t *testing.T, name string, qs map[string]*engine.Prepared) {
		t.Helper()
		for qname, q := range qs {
			b := q.Bound()
			if b == nil {
				t.Fatalf("%s/%s: no bound attached", name, qname)
			}
			if !b.Bounded {
				t.Errorf("%s/%s: classified unbounded: %s", name, qname, b.Reason)
				continue
			}
		}
	}

	t.Run("scadr", func(t *testing.T) {
		cluster := kvstore.New(kvstore.Config{Nodes: 2, ReplicationFactor: 2, Seed: 3}, nil)
		s := engine.New(cluster).Session(nil)
		cfg := scadr.DefaultConfig()
		cfg.UsersPerNode = 20
		cfg.ThoughtsPerUser = 2
		for _, ddl := range scadr.DDL(cfg) {
			if err := s.Exec(ddl); err != nil {
				t.Fatal(err)
			}
		}
		users, err := scadr.Load(s, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		w, err := scadr.NewWorker(s, cfg, users, 1)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "scadr", w.Queries())
	})

	t.Run("tpcw", func(t *testing.T) {
		cluster := kvstore.New(kvstore.Config{Nodes: 2, ReplicationFactor: 2, Seed: 3}, nil)
		s := engine.New(cluster).Session(nil)
		cfg := tpcw.DefaultConfig()
		cfg.CustomersPerNode = 20
		cfg.Items = 50
		for _, ddl := range tpcw.DDL(cfg) {
			if err := s.Exec(ddl); err != nil {
				t.Fatal(err)
			}
		}
		customers, items, err := tpcw.Load(s, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		w, err := tpcw.NewWorker(s, cfg, customers, items, 1)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "tpcw", w.Queries())
	})

	t.Run("fig7", func(t *testing.T) {
		bounded, unbounded, err := Fig7Plans(50)
		if err != nil {
			t.Fatal(err)
		}
		if b := analyze.Plan(bounded); !b.Bounded {
			t.Errorf("fig7 PIQL plan classified unbounded: %s", b.Reason)
		} else if b.Ops != 50 {
			t.Errorf("fig7 PIQL plan bound = %d, want 50", b.Ops)
		}
		if b := analyze.Plan(unbounded); b.Bounded {
			t.Error("fig7 cost-based plan classified bounded")
		}
	})
}
