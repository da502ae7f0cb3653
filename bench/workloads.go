package main

import (
	"fmt"
	"runtime"

	"piql/internal/engine"
	"piql/internal/exec"
	"piql/internal/kvstore"
	"piql/internal/sim"
	"piql/internal/value"
)

// workload is one fixed set of inputs. Its run length is a fixed number
// of interactions per requested second, never a duration, so that state
// growth, GC cycles and every counter are the same run to run; the
// per-second counts are sized so the measured phase lasts about -seconds
// on the reference host.
type workload struct {
	name string
	run  func(cfg config, k *refKernel) (*report, error)
}

// Why each exists is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{"scadr_home", runSCADrHome},
	{"tpcw_order", runTPCWOrder},
	{"prepare_cold", runPrepareCold},
	{"scadr_sim", runSCADrSim},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 3

// newSite makes an empty immediate-mode (env == nil) or simulated
// cluster with an engine and one ParallelExecutor session on it.
func newSite(nodes int, clusterSeed int64, env *sim.Env) *site {
	cluster := kvstore.New(kvstore.Config{Nodes: nodes, ReplicationFactor: 2, Seed: clusterSeed}, env)
	eng := engine.New(cluster)
	s := eng.Session(nil)
	s.SetStrategy(exec.Parallel)
	return &site{cluster: cluster, eng: eng, s: s}
}

// finishBuild is the tail every set-up shares once the data is loaded:
// prepare the statements (which builds their indexes), then spread the
// data as the SCADS Director would.
func finishBuild(site *site, st *stager, rows int, prepare func() error) error {
	st.markLoaded(rows)
	if err := prepare(); err != nil {
		return err
	}
	st.mark()
	site.cluster.Rebalance()
	st.markRebalance()
	return nil
}

// setUp sets up setupReps times, timing each, and returns the
// repetitions' normalised and raw seconds and the last one's inputs.
// drop releases the previous repetition's store, so it is collected
// before the next one is timed.
func setUp(k *refKernel, drop func(), build func(in *inputs, st *stager) error) (in *inputs, norm, raw []float64, err error) {
	st := &stager{k: k}
	for rep := 0; rep < setupReps; rep++ {
		drop()
		runtime.GC()
		in = newInputs()
		st.begin()
		if err := build(in, st); err != nil {
			return nil, nil, nil, err
		}
		n, r := st.seconds()
		norm, raw = append(norm, n), append(raw, r)
	}
	return in, norm, raw, nil
}

// built is a loaded site and what runs on it.
type built struct {
	site     *site
	interact func() bool
	draws    func() uint64 // fold of the parameter draws so far
	probes   probeInputs
}

// immediate describes a closed-loop run against an immediate-mode
// cluster: one client goroutine, no think time.
type immediate struct {
	perSecond int // measured interactions per requested second
	warmup    int // interactions before timing starts
	window    int // interactions per window (about 100 ms of work)
	build     func(cfg config, in *inputs, st *stager) (*built, error)
}

func (im immediate) run(cfg config, k *refKernel) (*report, error) {
	if cfg.trace != "" {
		return im.runTraced(cfg, k)
	}
	var b *built
	in, setupNorm, setupRaw, err := setUp(k, func() { b = nil }, func(in *inputs, st *stager) (err error) {
		b, err = im.build(cfg, in, st)
		return err
	})
	if err != nil {
		return nil, err
	}
	total := im.perSecond * cfg.seconds
	rec := newRecorder(k, total)
	for i := 0; i < im.warmup; i++ {
		if !b.interact() {
			return nil, fmt.Errorf("%s: interaction %d failed during warm-up", cfg.workload, i)
		}
	}
	rec.begin()
	ops0 := b.site.cluster.TotalOps()
	for done := 0; done < total; done += im.window {
		rec.window(min(im.window, total-done), b.interact)
	}
	c := rec.pause()
	c.kvOps = float64(b.site.cluster.TotalOps() - ops0)
	heap := heapLiveMB()
	runtime.KeepAlive(b)
	in.text(fmt.Sprintf("draws=%016x", b.draws()))

	rep := newReport(cfg, in)
	rep.Attempted, rep.Failed, rep.Samples = rec.attempted, rec.failed, len(rec.lat)
	rep.Metrics = endToEnd(rec, c, setupNorm, setupRaw, heap, false)
	return rep, nil
}

// runTraced is the second run of the same command: one set-up, a warm-up,
// the ladder over alternating blocks, then the direct probes.
func (im immediate) runTraced(cfg config, k *refKernel) (*report, error) {
	in, st := newInputs(), &stager{k: k}
	heap0 := heapLiveMB()
	st.begin()
	b, err := im.build(cfg, in, st)
	if err != nil {
		return nil, err
	}
	out := make(map[string]metric)
	st.setupMetrics(out, b.site.cluster, heap0)
	for i := 0; i < im.warmup/4; i++ {
		if !b.interact() {
			return nil, fmt.Errorf("%s: interaction %d failed during warm-up", cfg.workload, i)
		}
	}
	b.site.enableLadder()
	var tp tracedPhase
	tp.run(k, b.site, b.interact)
	in.text(fmt.Sprintf("draws=%016x", b.draws()))
	return finishTraced(cfg, k, in, &tp, b.site, b.probes, out)
}

// finishTraced runs the probes, writes the span file and assembles the
// traced run's report.
func finishTraced(cfg config, k *refKernel, in *inputs, tp *tracedPhase, st *site, pi probeInputs, out map[string]metric) (*report, error) {
	tp.metrics(out)
	p := &prober{k: k, out: out}
	if err := runProbes(p, st, pi); err != nil {
		return nil, err
	}
	refUs, refSpread := refHealth(tp.calibs)
	out["harness.ref_kernel_us"] = metric{refUs, "us"}
	out["harness.ref_spread"] = metric{refSpread, "ratio"}
	if err := tp.tr.write(cfg.trace, cfg.workload, cfg.seed); err != nil {
		return nil, err
	}
	rep := newReport(cfg, in)
	rep.Attempted, rep.Failed, rep.Samples = tracedBlocks*tracedPerBlock, tp.failed, len(tp.tr.spans)
	rep.Metrics = out
	return rep, nil
}

func runSCADrHome(cfg config, k *refKernel) (*report, error) {
	sz := scadrSize{users: 6000, thoughts: 10, subs: 10, page: 10}
	return immediate{
		perSecond: 3300, warmup: 3000, window: 330,
		build: func(cfg config, in *inputs, st *stager) (*built, error) {
			site := newSite(4, cfg.seed, nil)
			l := &loader{s: site.s, in: in, mark: st.mark}
			if err := loadSCADr(l, cfg.seed, sz); err != nil {
				return nil, err
			}
			var stmts [4]*stmt
			err := finishBuild(site, st, l.rows, func() (err error) {
				stmts, err = prepareSCADr(site, in, sz.page)
				return err
			})
			if err != nil {
				return nil, err
			}
			w := newSCADrWorker(site, stmts, cfg.seed, sz, 0)
			return &built{site, w.interaction, func() uint64 { return w.draw }, scadrProbeInputs(site, sz)}, nil
		},
	}.run(cfg, k)
}

// scadrProbeInputs points the probes at the thoughts table: fresh
// thoughts far above any timestamp the workload writes, ranges by owner.
func scadrProbeInputs(site *site, sz scadrSize) probeInputs {
	return probeInputs{
		insertSQL: scadrInsertThought, deleteSQL: scadrDeleteThought,
		table: site.eng.Catalog().Table("thoughts"),
		freshRow: func(i int) value.Row {
			return value.Row{value.Str(userName(i % sz.users)), value.Int(int64(3_000_000_000 + i)), value.Str("a probe thought")}
		},
		scanLead: func(i int) value.Row { return value.Row{value.Str(userName(i * 7 % sz.users))} },
	}
}

func runTPCWOrder(cfg config, k *refKernel) (*report, error) {
	sz := tpcwSize{customers: 2000, items: 10000}
	return immediate{
		perSecond: 16000, warmup: 8000, window: 1600,
		build: func(cfg config, in *inputs, st *stager) (*built, error) {
			site := newSite(4, cfg.seed, nil)
			l := &loader{s: site.s, in: in, mark: st.mark}
			if err := loadTPCW(l, cfg.seed, sz); err != nil {
				return nil, err
			}
			var w *tpcwWorker
			err := finishBuild(site, st, l.rows, func() (err error) {
				w, err = prepareTPCW(site, in, cfg.seed, sz)
				return err
			})
			if err != nil {
				return nil, err
			}
			// The probes work on order_line: ranges by order id (every
			// loaded order has one to four lines), fresh lines in orders
			// no interaction reads.
			pi := probeInputs{
				insertSQL: tpcwInsertOrderLine, deleteSQL: tpcwDeleteOrderLine,
				table: site.eng.Catalog().Table("order_line"),
				freshRow: func(i int) value.Row {
					return value.Row{value.Int(int64(2_000_000_000 + i/4)), value.Int(int64(i % 4)), value.Int(int64(i % sz.items)), value.Int(1)}
				},
				scanLead: func(i int) value.Row { return value.Row{value.Int(int64(1 + i*7%sz.customers))} },
			}
			return &built{site, w.interaction, func() uint64 { return w.draw }, pi}, nil
		},
	}.run(cfg, k)
}
