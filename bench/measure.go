package main

import (
	"runtime"
	"time"

	"piql/internal/kvstore"
)

// stager times set-up in stages with a calibration before, between and
// after them; the set-up's raw time is scaled by the median of those
// calibrations.
type stager struct {
	k          *refKernel
	calibs     []calib
	t0         time.Time
	rawNs      float64
	rebalanceS float64 // raw seconds of the stage that ended with markRebalance
	loadS      float64 // raw seconds up to markLoaded
	rows       int     // rows loaded by then
}

func (s *stager) begin() {
	s.calibs, s.rawNs = append(s.calibs[:0], s.k.calibrate()), 0
	s.t0 = time.Now()
}

// mark ends the current stage; calibrating is not part of any stage.
func (s *stager) mark() {
	s.rawNs += float64(time.Since(s.t0))
	s.calibs = append(s.calibs, s.k.calibrate())
	s.t0 = time.Now()
}

// markLoaded ends the load: everything so far inserted rows.
func (s *stager) markLoaded(rows int) {
	s.mark()
	s.loadS, s.rows = s.rawNs/1e9, rows
}

func (s *stager) markRebalance() {
	before := s.rawNs
	s.mark()
	s.rebalanceS = (s.rawNs - before) / 1e9
}

// scale is the set-up's one factor: the median of all its calibrations.
func (s *stager) scale() float64 { return refNominalNs / median(s.calibs) }

// seconds returns the set-up's normalised and raw duration.
func (s *stager) seconds() (norm, raw float64) {
	return s.rawNs * s.scale() / 1e9, s.rawNs / 1e9
}

// setupMetrics reports the layer metrics a set-up gives: Rebalance,
// the loader's insert rate, and the store's memory per item (heap grown
// since heap0MB, over every replica's items).
func (s *stager) setupMetrics(out map[string]metric, cluster *kvstore.Cluster, heap0MB float64) {
	f := s.scale()
	out["kvstore.rebalance_s"] = metric{s.rebalanceS * f, "s"}
	out["workload.load_rows_per_s"] = metric{float64(s.rows) / (s.loadS * f), "1/s"}
	out["kvstore.bytes_per_item"] = metric{(heapLiveMB() - heap0MB) * (1 << 20) / float64(cluster.TotalItems()), "bytes"}
}

// recorder collects the measured phase: windows of a fixed number of
// interactions, a calibration after each, and every interaction's
// latency on the workload's clock.
type recorder struct {
	k         *refKernel
	calibs    []calib
	wins      []window
	lat       []float64 // raw ns; wall unless the workload says virtual
	attempted int
	failed    int

	mem0       runtime.MemStats
	calibs0    int // len(calibs) when mem0 was read
	got        counts
	kernMalloc uint64
	kernBytes  uint64
}

func newRecorder(k *refKernel, interactions int) *recorder {
	r := &recorder{k: k, lat: make([]float64, 0, interactions+interactions/4)}
	r.kernMalloc, r.kernBytes = k.kernelAllocs()
	return r
}

// begin starts (or, after pause, resumes) the measured phase: the
// allocation counters are read and a calibration taken.
func (r *recorder) begin() {
	r.calibs0 = len(r.calibs)
	runtime.ReadMemStats(&r.mem0)
	r.calibrate()
}

func (r *recorder) calibrate() {
	r.calibs = append(r.calibs, r.k.calibrate())
}

// window runs n interactions back to back (closed loop, no think time:
// an interaction's latency is the time since the previous one ended,
// less any stall) and closes the window with a calibration.
func (r *recorder) window(n int, interact func() bool) {
	first, before := len(r.lat), len(r.calibs)-1
	c0, t0 := cpuNow(), time.Now()
	prevC, prevT := c0, t0
	var stalled time.Duration
	for i := 0; i < n; i++ {
		ok := interact()
		now, cpu := time.Now(), cpuNow()
		wall := now.Sub(prevT)
		stall := stallIn(wall, cpu-prevC)
		r.lat = append(r.lat, float64(wall-stall))
		stalled += stall
		prevT, prevC = now, cpu
		if !ok {
			r.failed++
		}
	}
	r.attempted += n
	r.calibrate()
	r.wins = append(r.wins, window{n: n, wallNs: float64(prevT.Sub(t0) - stalled), cpuNs: float64(prevC - c0),
		stallNs: float64(stalled), calib: before, firstLat: first, nLat: n})
}

// counts are what the measured phase cost in the program's own
// counters. The caller fills in kvOps.
type counts struct {
	mallocs, bytes, kvOps float64
}

// pause stops counting allocations (so work between epochs is left out)
// and returns the totals so far, with the reference kernel's own
// allocations taken out.
func (r *recorder) pause() counts {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	nk := uint64(len(r.calibs) - r.calibs0)
	r.got.mallocs += float64(m.Mallocs - r.mem0.Mallocs - nk*r.kernMalloc)
	r.got.bytes += float64(m.TotalAlloc - r.mem0.TotalAlloc - nk*r.kernBytes)
	return r.got
}

// heapLiveMB is HeapAlloc after two forced collections (the second
// frees what the first's finalizers released).
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the gated metrics and their raw twins from a
// finished recorder. virtualLat says the latencies are on the simulated
// clock and must not be normalised.
func endToEnd(r *recorder, c counts, setupNorm, setupRaw []float64, heapMB float64, virtualLat bool) map[string]metric {
	n := float64(r.attempted)
	perWin := make([]float64, len(r.wins))
	rawPerWin := make([]float64, len(r.wins))
	normLat := make([]float64, 0, len(r.lat))
	var cpuNorm, cpuRaw, stalled, wallRaw float64
	for i, w := range r.wins {
		f := hostScale(r.calibs, w.calib)
		perWin[i] = w.wallNs * f / 1e3 / float64(w.n)
		rawPerWin[i] = (w.wallNs + w.stallNs) / 1e3 / float64(w.n)
		cpuNorm += w.cpuNs * f
		cpuRaw += w.cpuNs
		stalled += w.stallNs
		wallRaw += w.wallNs + w.stallNs
		if virtualLat {
			f = 1
		}
		for _, l := range r.lat[w.firstLat : w.firstLat+w.nLat] {
			normLat = append(normLat, l*f/1e3)
		}
	}
	rawLat := make([]float64, len(r.lat))
	for i, l := range r.lat {
		rawLat[i] = l / 1e3
	}
	normLat, rawLat = sortedCopy(normLat), sortedCopy(rawLat)
	refUs, refSpread := refHealth(r.calibs)
	return map[string]metric{
		"setup_s":                {median(setupNorm), "s"},
		"throughput_ips":         {1e6 / median(perWin), "1/s"},
		"latency_p50_us":         {percentileSorted(normLat, 50), "us"},
		"latency_p99_us":         {percentileSorted(normLat, 99), "us"},
		"cpu_us_per_interaction": {cpuNorm / 1e3 / n, "us"},
		"allocs_per_interaction": {c.mallocs / n, "count"},
		"bytes_per_interaction":  {c.bytes / n, "bytes"},
		"kv_ops_per_interaction": {c.kvOps / n, "count"},
		"heap_live_mb":           {heapMB, "MB"},

		"raw.setup_s":                {median(setupRaw), "s"},
		"raw.throughput_ips":         {1e6 / median(rawPerWin), "1/s"},
		"raw.latency_p50_us":         {percentileSorted(rawLat, 50), "us"},
		"raw.latency_p99_us":         {percentileSorted(rawLat, 99), "us"},
		"raw.cpu_us_per_interaction": {cpuRaw / 1e3 / n, "us"},
		"raw.ref_kernel_us":          {refUs, "us"},
		"raw.ref_spread":             {refSpread, "ratio"},
		"raw.stall_share":            {stalled / wallRaw, "ratio"},
	}
}

// refHealth summarises the calibrations of a run: the kernel's raw
// median time and its inter-quartile range over its median, which says
// how much the host's speed moved during the run.
func refHealth(calibs []calib) (us, spread float64) {
	q1, q3 := quartiles(calibs)
	return median(calibs) / 1e3, (q3 - q1) / median(calibs)
}
