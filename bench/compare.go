package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// gate is one metric's entry in BENCHMARK.json.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics, which have none
}

// loadGates reads the metric definitions the driver uses, so -compare
// judges with the same bounds and directions.
func loadGates(path string) (map[string]gate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		EndToEnd []gate `json:"end_to_end"`
		PerLayer []gate `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	gates := make(map[string]gate)
	for _, g := range append(file.EndToEnd, file.PerLayer...) {
		gates[g.Name] = g
	}
	return gates, nil
}

// runSet is the runs of one -json file: workload → metric → values, and
// the failures summed per workload.
type runSet struct {
	values map[string]map[string][]float64
	failed map[string]int
}

func readRunSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &runSet{values: make(map[string]map[string][]float64), failed: make(map[string]int)}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if set.values[r.Workload] == nil {
			set.values[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			set.values[r.Workload][name] = append(set.values[r.Workload][name], m.Value)
		}
		set.failed[r.Workload] += r.Failed
	}
	return set, sc.Err()
}

// Verdicts of one workload × metric.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved" // the runs spread wider than the bound: no telling
	regressed  = "regressed"
	ungated    = "-" // no bound: shown for information
)

// judge compares B's runs with A's for one metric. gap is (median B −
// median A) ÷ median A; spread is the wider of the two sets'
// inter-quartile range ÷ median.
func judge(a, b []float64, g gate) (gap, spread float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		gap = (mb - ma) / ma
	}
	rel := func(xs []float64, m float64) float64 {
		if m == 0 || len(xs) < 2 {
			return 0
		}
		q1, q3 := quartiles(xs)
		return (q3 - q1) / m
	}
	spreadA := rel(a, ma)
	spread = max(spreadA, rel(b, mb))
	if g.Bound == 0 {
		return gap, spread, ungated
	}
	worse := gap
	if g.Better == "higher" {
		worse = -gap
	}
	switch {
	case worse > g.Bound:
		return gap, spread, regressed
	case spread > g.Bound:
		return gap, spread, unresolved
	case -worse > spreadA && worse != 0:
		// Better by more than the distance between A's own quartiles.
		return gap, spread, improved
	}
	return gap, spread, unchanged
}

// compareFiles prints, per workload × metric present in both files, the
// two medians and quartiles, the relative gap, the bound and a verdict.
// It returns the process exit code: 1 if anything regressed or B failed
// more interactions than A.
func compareFiles(out io.Writer, pathA, pathB string) int {
	gates, err := loadGates("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -compare reads bounds from BENCHMARK.json in the working directory: %v\n", err)
		return 2
	}
	a, err := readRunSet(pathA)
	if err == nil {
		var b *runSet
		if b, err = readRunSet(pathB); err == nil {
			return compareSets(out, a, b, gates)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: -compare: %v\n", err)
	return 2
}

func compareSets(out io.Writer, a, b *runSet, gates map[string]gate) int {
	code := 0
	var names []string
	for w := range a.values {
		if b.values[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	for _, w := range names {
		fmt.Fprintf(out, "%s\n%-40s %4s %14s %14s %14s %4s %14s %14s %14s %8s %8s %6s  %s\n", w,
			"metric", "nA", "q1 A", "median A", "q3 A", "nB", "q1 B", "median B", "q3 B", "gap", "spread", "bound", "verdict")
		var metrics []string
		for m := range a.values[w] {
			if b.values[w][m] != nil {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			va, vb := a.values[w][m], b.values[w][m]
			gap, spread, verdict := judge(va, vb, gates[m])
			if verdict == regressed {
				code = 1
			}
			q1a, q3a := quartiles(va)
			q1b, q3b := quartiles(vb)
			fmt.Fprintf(out, "%-40s %4d %14.4f %14.4f %14.4f %4d %14.4f %14.4f %14.4f %+7.2f%% %7.2f%% %5.0f%%  %s\n",
				m, len(va), q1a, median(va), q3a, len(vb), q1b, median(vb), q3b, gap*100, spread*100, gates[m].Bound*100, verdict)
		}
		verdict := unchanged
		if b.failed[w] > a.failed[w] {
			verdict, code = regressed, 1 // failed_share may not rise at all
		}
		fmt.Fprintf(out, "%-40s failed A=%d B=%d  %s\n\n", "failed interactions", a.failed[w], b.failed[w], verdict)
	}
	return code
}
