package harness

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"piql/internal/exec"
	"piql/internal/kvstore"
	"piql/internal/sim"
	"piql/internal/value"
	"piql/internal/workload/scadr"
)

func quickScaleConfig() ScaleConfig {
	return ScaleConfig{
		NodeCounts:       []int{4, 8},
		ThreadsPerClient: 3,
		Warmup:           300 * time.Millisecond,
		Measure:          700 * time.Millisecond,
		Seed:             1,
		Strategy:         exec.Parallel,
	}
}

func smallSCADr() scadr.Config {
	cfg := scadr.DefaultConfig()
	cfg.UsersPerNode = 100
	cfg.ThoughtsPerUser = 5
	return cfg
}

// TestScaleRunShowsLinearityAndFlatLatency is the Figs. 8-11 shape check
// in miniature: doubling nodes roughly doubles throughput while the
// 99th percentile stays flat.
func TestScaleRunShowsLinearityAndFlatLatency(t *testing.T) {
	res, err := RunScale(SCADrWorkload(smallSCADr()), quickScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	p4, p8 := res.Points[0], res.Points[1]
	ratio := p8.Throughput / p4.Throughput
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("throughput scaling 4->8 nodes = %.2fx, want ~2x", ratio)
	}
	if p8.P99 > p4.P99*2 {
		t.Errorf("p99 not flat: %v -> %v", p4.P99, p8.P99)
	}
	if res.Fit.R2 < 0.9 {
		t.Errorf("R² = %v", res.Fit.R2)
	}
	var buf bytes.Buffer
	res.Print(&buf, "FigA", "FigB")
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

// TestFig7Crossover is the Section 8.3 shape check: the unbounded plan
// degrades with popularity, the bounded plan does not.
func TestFig7Crossover(t *testing.T) {
	cfg := Fig7Config{
		Subscribers: []int{0, 2000},
		Friends:     20,
		Executions:  80,
		Nodes:       6,
		Seed:        5,
	}
	points, err := RunFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	unpopular, popular := points[0], points[1]
	// The bounded plan's latency is popularity-independent.
	if popular.BoundedP99 > unpopular.BoundedP99*3 {
		t.Errorf("bounded plan degraded with popularity: %v -> %v",
			unpopular.BoundedP99, popular.BoundedP99)
	}
	// The unbounded plan degrades sharply for the popular user.
	if popular.UnboundedP99 < 3*popular.BoundedP99 {
		t.Errorf("unbounded plan did not blow up: unbounded=%v bounded=%v",
			popular.UnboundedP99, popular.BoundedP99)
	}
	var buf bytes.Buffer
	PrintFig7(&buf, points)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}

// TestMeasureQueriesReturnsExecutionError: an execution that fails
// inside Table 1's measuring process is the driver's error, not a panic
// that ends the program running it.
func TestMeasureQueriesReturnsExecutionError(t *testing.T) {
	r, err := newRig(kvstore.Config{Nodes: 2, ReplicationFactor: 2, Seed: 3}, sim.NewEnv(),
		[]string{`CREATE TABLE users (username VARCHAR(20), PRIMARY KEY (username))`})
	if err != nil {
		t.Fatal(err)
	}
	q, err := r.loader.Prepare(`SELECT * FROM users WHERE username = [1: name]`)
	if err != nil {
		t.Fatal(err)
	}
	noParams := func(*rand.Rand) []value.Value { return nil }
	_, err = measureQueries(r, []preparedSpec{{name: "q", q: q, gen: noParams}},
		Table1Config{Intervals: 1, IntervalMS: 100, PerQuery: 1, Seed: 1})
	if want := "table1 q: exec: query needs 1 parameters, got 0"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want one saying %q", err, want)
	}
}

// TestFig1Classes checks the class growth shapes, and Class II's
// measured operations against its query's static bound.
func TestFig1Classes(t *testing.T) {
	rows, err := RunFig1([]int{50, 500}, 3)
	if err != nil {
		t.Fatal(err)
	}
	small, large := rows[0], rows[1]
	if small.ClassI != large.ClassI {
		t.Error("Class I grew with database size")
	}
	if small.ClassII != large.ClassII {
		t.Error("Class II grew with database size")
	}
	for _, r := range rows {
		if r.ClassII <= 0 || r.ClassII > r.ClassIIBound {
			t.Errorf("%d users: Class II took %d storage operations, static bound %d", r.Users, r.ClassII, r.ClassIIBound)
		}
	}
	if large.ClassIII != 10*small.ClassIII {
		t.Errorf("Class III not linear: %d -> %d", small.ClassIII, large.ClassIII)
	}
	if large.ClassIV != 100*small.ClassIV {
		t.Errorf("Class IV not quadratic: %d -> %d", small.ClassIV, large.ClassIV)
	}
	var buf bytes.Buffer
	PrintFig1(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty print")
	}
}
