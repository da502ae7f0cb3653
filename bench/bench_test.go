package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{{1, 10}, {20, 10}, {21, 20}, {50, 30}, {99, 50}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its argument")
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median(xs); got != 30 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// The driver judges spread with Python's statistics.quantiles(v, n=4);
// these are its results for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("ten values: got %v, %v want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("five values: got %v, %v want 1, 4.5", q1, q3)
	}
}

// syntheticRun is a recorder as a run on a host of the given slowness
// would leave it: every window and every calibration takes slow times
// as long. One calibration in ten also overlaps a GC cycle.
func syntheticRun(slow float64) *recorder {
	r := &recorder{}
	r.calibs = append(r.calibs, refNominalNs*slow)
	for w := 0; w < 40; w++ {
		n := 100
		wall := 0.0
		for i := 0; i < n; i++ {
			lat := (200e3 + float64(i%7)*10e3) * slow
			if i == 99 {
				lat *= 5
			}
			r.lat = append(r.lat, lat)
			wall += lat
		}
		c := refNominalNs * slow
		if w%10 == 3 {
			c *= 1.4
		}
		r.wins = append(r.wins, window{n: n, wallNs: wall, cpuNs: wall * 1.1, calib: w, firstLat: w * n, nLat: n})
		r.calibs = append(r.calibs, c)
		r.attempted += n
	}
	return r
}

func TestNormaliserCancelsHostSlowdown(t *testing.T) {
	base := endToEnd(syntheticRun(1), counts{}, []float64{1}, []float64{1}, 1, false)
	slow := endToEnd(syntheticRun(1.3), counts{}, []float64{1}, []float64{1}, 1, false)
	for _, name := range []string{"throughput_ips", "latency_p50_us", "latency_p99_us", "cpu_us_per_interaction"} {
		if !near(base[name].Value, slow[name].Value, 0.01) {
			t.Errorf("%s: %v on the reference host, %v on one 1.3x slower", name, base[name].Value, slow[name].Value)
		}
		if raw := "raw." + name; near(base[raw].Value, slow[raw].Value, 0.2) {
			t.Errorf("%s should show the slowdown: %v vs %v", raw, base[raw].Value, slow[raw].Value)
		}
	}
	// On the reference host normalised values read like raw ones.
	if got := base["latency_p50_us"].Value; !near(got, 230, 0.01) {
		t.Errorf("p50 on the reference host = %v us, want 230", got)
	}
	// Virtual-clock latencies are left alone.
	virt := endToEnd(syntheticRun(1.3), counts{}, []float64{1}, []float64{1}, 1, true)
	if virt["latency_p50_us"].Value != virt["raw.latency_p50_us"].Value {
		t.Error("virtual latencies were normalised")
	}
}

func TestStallIn(t *testing.T) {
	if got := stallIn(300e3, 290e3); got != 0 {
		t.Errorf("a 10us gap is the program's own, got stall %v", got)
	}
	if got := stallIn(5e6, 1e6); got != 4e6 {
		t.Errorf("stall = %v, want 4ms", got)
	}
	if got := stallIn(1e6, 2e6); got != 0 {
		t.Errorf("more CPU than wall (GC workers) is no stall, got %v", got)
	}
}

// A hand-built tree: an interaction (0-100us) with a nested child A
// (10-40) that has a child C (15-25), and a ladder replay B of the root
// that lies after it (120-140). Second window scaled 2x.
func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{scales: []float64{1, 2}}
	add := func(name string, parent int32, start, end int64, win int32) int32 {
		id := int32(len(tr.spans))
		tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, StartNs: start * 1000, EndNs: end * 1000, Window: win})
		return id
	}
	root := add("workload.interaction", -1, 0, 100, 0)
	a := add("engine.execute", root, 10, 40, 0)
	add("exec.run.pk_lookup", a, 15, 25, 0)
	add("harness.replay_prep", root, 120, 140, 0)
	root2 := add("workload.interaction", -1, 200, 250, 1)
	add("engine.execute", root2, 210, 220, 1)

	by := tr.byName()
	check := func(name string, calls int, total, self float64) {
		t.Helper()
		lt := by[name]
		if lt == nil || lt.calls != calls || !near(lt.totalUs, total, 1e-9) || !near(lt.selfUs, self, 1e-9) {
			t.Errorf("%s = %+v, want calls %d total %v self %v", name, lt, calls, total, self)
		}
	}
	check("workload.interaction", 2, 100+2*50, (100-30-20)+2*(50-10))
	check("engine.execute", 2, 30+2*10, (30-10)+2*10)
	check("exec.run.pk_lookup", 1, 10, 10)
	if !isReplay("exec.run.pk_lookup") || isReplay("engine.execute") || isReplay("workload.interaction") {
		t.Error("isReplay misclassifies a rung")
	}
}

func TestVariantTextsAreDistinctAndSameLength(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1024; i++ {
		v := variant(scadrFindUser, i)
		if len(v) != len(scadrFindUser) || !strings.EqualFold(v, scadrFindUser) {
			t.Fatalf("variant %d is not a respelling: %q", i, v)
		}
		seen[v] = true
	}
	if len(seen) != 1024 {
		t.Errorf("%d distinct variants, want 1024", len(seen))
	}
}

func TestColdTextsAreFirstSeenWithinAnEpoch(t *testing.T) {
	texts := coldTexts(newInputs(), newRand(1, 4), coldEpoch)
	seen := make(map[string]bool, len(texts))
	refused := 0
	for _, x := range texts {
		if seen[x.sql] {
			t.Fatalf("text repeats within an epoch: %s", x.sql)
		}
		seen[x.sql] = true
		if x.refused != 0 {
			refused++
		}
	}
	if refused*coldRefused != coldEpoch {
		t.Errorf("%d of %d texts must be refused, want one in %d", refused, coldEpoch, coldRefused)
	}
}

func TestJudge(t *testing.T) {
	lower := gate{Name: "latency_p50_us", Better: "lower", Bound: 0.05}
	higher := gate{Name: "throughput_ips", Better: "higher", Bound: 0.05}
	a := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		b    []float64
		g    gate
		want string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, lower, unchanged},
		{"slower", []float64{110, 111, 109, 110, 110}, lower, regressed},
		{"faster", []float64{90, 91, 89, 90, 90}, lower, improved},
		{"less throughput", []float64{90, 91, 89, 90, 90}, higher, regressed},
		{"more throughput", []float64{110, 111, 109, 110, 110}, higher, improved},
		{"too noisy to tell", []float64{80, 120, 100, 70, 130}, lower, unresolved},
		{"no bound", []float64{200, 200, 200, 200, 200}, gate{}, ungated},
	} {
		if _, _, got := judge(a, c.b, c.g); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSetsExitCode(t *testing.T) {
	set := func(p50 float64, failed int) *runSet {
		return &runSet{
			values: map[string]map[string][]float64{"w": {"latency_p50_us": {p50, p50 * 1.01, p50 * 0.99}}},
			failed: map[string]int{"w": failed},
		}
	}
	gates := map[string]gate{"latency_p50_us": {Better: "lower", Bound: 0.05}}
	var out bytes.Buffer
	if code := compareSets(&out, set(100, 0), set(101, 0), gates); code != 0 {
		t.Errorf("unchanged sets: exit %d\n%s", code, out.String())
	}
	if code := compareSets(&out, set(100, 0), set(120, 0), gates); code != 1 {
		t.Errorf("a regression must exit 1, got %d", code)
	}
	if code := compareSets(&out, set(100, 0), set(100, 1), gates); code != 1 {
		t.Errorf("a new failed interaction must exit 1, got %d", code)
	}
}

// Two runs from one seed must feed the program the same inputs and get
// the same counts back; on the simulated cluster the latencies repeat
// too. Another seed is another set of inputs.
func TestRunsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three short benchmark runs")
	}
	k := newRefKernel()
	run := func(name string, seed int64) *report {
		t.Helper()
		for _, w := range workloads {
			if w.name == name {
				rep, err := w.run(config{workload: name, seed: seed, seconds: 1}, k)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failed != 0 {
					t.Fatalf("%s: %d of %d interactions failed", name, rep.Failed, rep.Attempted)
				}
				return rep
			}
		}
		t.Fatalf("no workload %s", name)
		return nil
	}
	for _, name := range []string{"scadr_sim", "prepare_cold"} {
		a, b, other := run(name, 1), run(name, 1), run(name, 2)
		if a.InputsSHA256 != b.InputsSHA256 {
			t.Errorf("%s: same seed, inputs %s and %s", name, a.InputsSHA256, b.InputsSHA256)
		}
		if a.InputsSHA256 == other.InputsSHA256 {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
		same := []string{"kv_ops_per_interaction"}
		if name == "scadr_sim" {
			same = append(same, "latency_p50_us", "latency_p99_us")
		}
		for _, m := range same {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s differs between two runs of seed 1: %v, %v", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
		if a.Attempted != b.Attempted {
			t.Errorf("%s: attempted %d and %d", name, a.Attempted, b.Attempted)
		}
	}
}
