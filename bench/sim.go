package main

import (
	"fmt"
	"runtime"
	"time"

	"piql/internal/exec"
	"piql/internal/sim"
)

// scadr_sim: SCADr on the simulated cluster the paper's figures use.
// Latencies are on the virtual clock, so round trips and fan-out — not
// CPU — set them; the wall-side metrics show the sim scheduler and
// Client.Parallel child creation, which immediate mode barely touches.

const (
	simNodes        = 10
	simUsersPerNode = 500
	simThreads      = 50 // 5 client machines × 10 threads, no think time
	simWarmup       = time.Second
	simSlice        = 100 * time.Millisecond // virtual time per window
	simSlicesPerSec = 2                      // windows per requested second: about 1 s of wall each 200 ms virtual

	// simClusterSeed fixes the simulated "cloud weather" (per-node
	// volatility, noisy neighbours, RTT draws). It is the environment,
	// not an input: with it tied to -seed, one seed in three would draw a
	// noisy node and its p99 would say nothing about the program.
	simClusterSeed = 20110829
)

var simSize = scadrSize{users: simNodes * simUsersPerNode, thoughts: 10, subs: 10, page: 10}

func buildSimSite(cfg config, in *inputs, st *stager) (*site, *sim.Env, [4]*stmt, error) {
	env := sim.NewEnv()
	site := newSite(simNodes, simClusterSeed, env)
	// Loading goes through an immediate-mode session: it costs no
	// virtual time, and the clock has not started.
	l := &loader{s: site.s, in: in, mark: st.mark}
	var stmts [4]*stmt
	if err := loadSCADr(l, cfg.seed, simSize); err != nil {
		return nil, nil, stmts, err
	}
	err := finishBuild(site, st, l.rows, func() (err error) {
		stmts, err = prepareSCADr(site, in, simSize.page)
		return err
	})
	return site, env, stmts, err
}

// simThread gives one simulated thread its own session (and so its own
// virtual-time identity) over the shared engine and plans.
func simThread(base *site, p *sim.Proc) *site {
	s := base.eng.Session(p)
	s.SetStrategy(exec.Parallel)
	return &site{cluster: base.cluster, eng: base.eng, s: s, maint: base.maint, tree: base.tree}
}

func runSCADrSim(cfg config, k *refKernel) (*report, error) {
	if cfg.trace != "" {
		return runSCADrSimTraced(cfg, k)
	}
	var (
		base  *site
		env   *sim.Env
		stmts [4]*stmt
	)
	in, setupNorm, setupRaw, err := setUp(k, func() { base, env = nil, nil }, func(in *inputs, st *stager) (err error) {
		base, env, stmts, err = buildSimSite(cfg, in, st)
		return err
	})
	if err != nil {
		return nil, err
	}

	slices := simSlicesPerSec * cfg.seconds
	end := simWarmup + time.Duration(slices)*simSlice
	rec := newRecorder(k, 4000*cfg.seconds)
	workers := make([]*scadrWorker, simThreads)
	for id := range workers {
		env.Spawn(func(p *sim.Proc) {
			w := newSCADrWorker(simThread(base, p), stmts, cfg.seed, simSize, id)
			workers[id] = w
			for {
				t0 := p.Now()
				ok := w.interaction()
				t1 := p.Now()
				if t0 < simWarmup || t1 > end {
					continue
				}
				rec.lat = append(rec.lat, float64(t1-t0))
				if !ok {
					rec.failed++
				}
			}
		})
	}
	env.Run(simWarmup)
	rec.begin()
	ops0 := base.cluster.TotalOps()
	for i := 1; i <= slices; i++ {
		first, before := len(rec.lat), len(rec.calibs)-1
		c0, t0 := cpuNow(), time.Now()
		env.Run(simWarmup + time.Duration(i)*simSlice)
		wall, cpu := float64(time.Since(t0)), float64(cpuNow()-c0)
		rec.calibrate()
		n := len(rec.lat) - first
		if n == 0 {
			return nil, fmt.Errorf("scadr_sim: no interaction completed in slice %d", i)
		}
		rec.wins = append(rec.wins, window{n: n, wallNs: wall, cpuNs: cpu, calib: before, firstLat: first, nLat: n})
	}
	rec.attempted = len(rec.lat)
	c := rec.pause()
	c.kvOps = float64(base.cluster.TotalOps() - ops0)
	env.Stop()
	heap := heapLiveMB()
	runtime.KeepAlive(base)
	for _, w := range workers {
		in.text(fmt.Sprintf("draws=%016x", w.draw))
	}

	rep := newReport(cfg, in)
	rep.Attempted, rep.Failed, rep.Samples = rec.attempted, rec.failed, len(rec.lat)
	rep.Metrics = endToEnd(rec, c, setupNorm, setupRaw, heap, true)
	return rep, nil
}

// runSCADrSimTraced runs the ladder from a single simulated thread: with
// fifty interleaved, a wall-clock span around one thread's call would
// cover the others' work. What the spans then show is the wall cost of
// the scheduler hand-offs and Parallel children inside each call.
func runSCADrSimTraced(cfg config, k *refKernel) (*report, error) {
	in, st := newInputs(), &stager{k: k}
	heap0 := heapLiveMB()
	st.begin()
	base, env, stmts, err := buildSimSite(cfg, in, st)
	if err != nil {
		return nil, err
	}
	out := make(map[string]metric)
	st.setupMetrics(out, base.cluster, heap0)
	base.enableLadder()
	var (
		tp     tracedPhase
		warmOK = true
		w      *scadrWorker
	)
	env.Spawn(func(p *sim.Proc) {
		thread := simThread(base, p)
		w = newSCADrWorker(thread, stmts, cfg.seed, simSize, 0)
		for i := 0; i < 200; i++ {
			warmOK = w.interaction() && warmOK
		}
		tp.run(k, thread, w.interaction)
	})
	env.Run(0)
	env.Stop()
	if !warmOK {
		return nil, fmt.Errorf("scadr_sim: an interaction failed during warm-up")
	}
	in.text(fmt.Sprintf("draws=%016x", w.draw))
	return finishTraced(cfg, k, in, &tp, base, scadrProbeInputs(base, simSize), out)
}
