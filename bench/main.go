// Command bench is the repository's benchmark: one invocation runs one
// workload from a seed, checks its outputs and prints every metric by
// name with its unit. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// config is one validated invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    string // span file to write; "" is tracing off
}

// report is everything one run printed, and one line of a -json file.
type report struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Seconds      int               `json:"seconds"`
	Traced       bool              `json:"traced"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	GoVersion    string            `json:"go_version"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Samples      int               `json:"samples"` // latency samples behind the percentiles
	InputsSHA256 string            `json:"inputs_sha256"`
	Metrics      map[string]metric `json:"metrics"`
}

// newReport fills in everything but the counts and the metrics.
func newReport(cfg config, in *inputs) *report {
	return &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace != "",
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		InputsSHA256: in.sum(),
	}
}

// driverLine is the last line of standard output, in the shape the
// driver reads: raw.* twins and other ungated extras are left out.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) print() error {
	fmt.Printf("workload=%s seed=%d seconds=%d traced=%v gomaxprocs=%d go=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.GOMAXPROCS, r.GoVersion)
	fmt.Printf("inputs_sha256=%s\nattempted=%d failed=%d failed_share=%g samples=%d\n",
		r.InputsSHA256, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted), r.Samples)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	gated := make(map[string]metric)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%-44s %18.6f %s\n", name, m.Value, m.Unit)
		if !strings.HasPrefix(name, "raw.") {
			gated[name] = m
		}
	}
	line, err := json.Marshal(driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: gated})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// appendJSON adds the report as one line to path, so a file collects a
// set of runs for -compare.
func (r *report) appendJSON(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	fmt.Fprintf(os.Stderr, "valid workloads: %s\n", strings.Join(workloadNames(), ", "))
	os.Exit(2)
}

func main() {
	var (
		name       = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed       = flag.Int64("seed", 1, "seed of every input: data, parameter draws, SQL texts")
		seconds    = flag.Int("seconds", 12, "run length; sets a fixed interaction count, 1 to 60")
		trace      = flag.String("trace", "0", "0: end-to-end run; 1: traced run, spans to .bench_build/; or a span file path")
		jsonPath   = flag.String("json", "", "append the full report as one JSON line to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile at exit to this file")
		compare    = flag.Bool("compare", false, "compare two -json files given as arguments: A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			usageError("-compare needs exactly two files, got %d", flag.NArg())
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		usageError("unexpected arguments %q", flag.Args())
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		usageError("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 || cfg.seconds > 60 {
		usageError("-seconds %d is outside 1..60", cfg.seconds)
	}
	switch *trace {
	case "0":
	case "1":
		cfg.trace = fmt.Sprintf(".bench_build/trace-%s-seed%d.json", cfg.workload, cfg.seed)
	case "":
		usageError("-trace needs 0, 1 or a file path")
	default:
		cfg.trace = *trace
	}
	if err := run(w, cfg, *jsonPath, *cpuProfile, *memProfile); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
}

func run(w *workload, cfg config, jsonPath, cpuProfile, memProfile string) error {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	rep, err := w.run(cfg, newRefKernel())
	if err != nil {
		return err
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			return err
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		if err := rep.appendJSON(jsonPath); err != nil {
			return err
		}
	}
	return rep.print()
}
