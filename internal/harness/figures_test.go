package harness

import (
	"bytes"
	"os"
	"testing"
	"time"

	"piql/internal/predict"
	"piql/internal/workload/tpcw"
)

// TestFiguresGolden pins what the deterministic drivers print at tiny
// configs: Table 1, Figs 1, 6 and 7, both scale sweeps, admission and
// one partition storm. Every driver runs on the virtual clock, so the
// output is a function of the code; a change to the latency model,
// executor, planner or store is a reviewed diff of
// testdata/figures.golden:
//
//	go test ./internal/harness -run TestFiguresGolden -update
//
// Fig 12 takes no config, so it has no tiny size, and concurrent
// measures wall-clock time; neither is here.
func TestFiguresGolden(t *testing.T) {
	model, err := predict.Train(predict.TrainConfig{
		Nodes:             4,
		ReplicationFactor: 2,
		Seed:              1,
		Intervals:         2,
		IntervalLength:    5 * time.Second,
		RepsPerInterval:   2,
		Alphas:            []int{1, 10, 100},
		AlphaJs:           []int{1, 10},
		Betas:             []int{40, 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer

	t1 := DefaultTable1Config()
	t1.Nodes, t1.Intervals, t1.PerQuery = 2, 2, 10
	rows, err := RunTable1(model, t1)
	if err != nil {
		t.Fatal(err)
	}
	PrintTable1(&got, rows)

	f1, err := RunFig1([]int{50, 200}, 3)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig1(&got, f1)

	f6 := Fig6Config{
		Subs: []int{10, 20}, Pages: []int{5, 10},
		ActualSubs: []int{10, 20}, ActualPages: []int{5, 10},
		Executions: 10, Seed: 21, SLO: 500 * time.Millisecond, Quantile: 0.9,
	}
	r6, err := RunFig6(model, f6)
	if err != nil {
		t.Fatal(err)
	}
	r6.Print(&got)

	f7 := Fig7Config{Subscribers: []int{0, 300}, Friends: 10, Executions: 20, Nodes: 4, Seed: 5}
	points, err := RunFig7(f7)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig7(&got, points)
	if err := PrintFig7Prediction(&got, model, f7.Friends, points); err != nil {
		t.Fatal(err)
	}

	tcfg := tpcw.DefaultConfig()
	tcfg.CustomersPerNode, tcfg.Items = 50, 200
	for _, sw := range []struct {
		w        Workload
		fig, lat string
	}{
		{TPCWWorkload(tcfg), "Fig 8", "Fig 9"},
		{SCADrWorkload(smallSCADr()), "Fig 10", "Fig 11"},
	} {
		res, err := RunScale(sw.w, quickScaleConfig())
		if err != nil {
			t.Fatal(err)
		}
		res.Print(&got, sw.fig, sw.lat)
	}

	ad := AdmissionConfig{Nodes: 4, Subscribers: 300, Friends: 10, GoodExecutions: 30, BadWorkers: 6, BadExecutions: 4, Seed: 23}
	ar, err := RunAdmission(ad)
	if err != nil {
		t.Fatal(err)
	}
	PrintAdmission(&got, ad, ar)

	ch := quickChaosConfig()
	ch.Faults = &FaultSchedule{Partition: true, LeaseMs: 40}
	cr, err := RunChaos(ch)
	if err != nil {
		t.Fatal(err)
	}
	cr.Print(&got)

	const path = "testdata/figures.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("figures differ from %s (regenerate with -update and review the diff)\n--- got\n%s\n--- want\n%s", path, got.Bytes(), want)
	}
}
