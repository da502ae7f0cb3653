package main

import (
	"bytes"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel and its nominal cost are FROZEN. Every recorded
// number is a multiple of them: changing the kernel or either constant
// rescales every metric ever written down with this benchmark.
const (
	refIters    = 16000 // per calibration, in refParts timed parts
	refParts    = 4
	refKeys     = 50000
	refKeyLen   = 24
	refAllocLen = 96

	// refNominalNs is the kernel's median time on the host this benchmark
	// was defined on. Normalised µs read like µs there.
	refNominalNs = 7.5e6
)

// cpuNow returns the process's CPU time (all threads, so GC workers are
// included) from CLOCK_PROCESS_CPUTIME_ID, which has nanosecond
// resolution; getrusage is tick-granular on some kernels.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// refKernel is a fixed piece of work shaped like the database's own:
// integer mixing, binary search with bytes.Compare over a table that
// does not fit L1/L2, and a small allocation with a copy.
type refKernel struct {
	keys  [][]byte
	state uint64
	sink  []byte
}

func newRefKernel() *refKernel {
	k := &refKernel{state: 0x9E3779B97F4A7C15}
	backing := make([]byte, refKeys*refKeyLen)
	for i := range backing {
		k.state ^= k.state << 13
		k.state ^= k.state >> 7
		k.state ^= k.state << 17
		backing[i] = byte(k.state)
	}
	k.keys = make([][]byte, refKeys)
	for i := range k.keys {
		k.keys[i] = backing[i*refKeyLen : (i+1)*refKeyLen : (i+1)*refKeyLen]
	}
	sort.Slice(k.keys, func(i, j int) bool { return bytes.Compare(k.keys[i], k.keys[j]) < 0 })
	return k
}

func (k *refKernel) part() {
	var probe [refKeyLen]byte
	x := k.state
	for it := 0; it < refIters/refParts; it++ {
		for b := 0; b < refKeyLen; b += 8 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			probe[b], probe[b+1], probe[b+2], probe[b+3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
			probe[b+4], probe[b+5], probe[b+6], probe[b+7] = byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56)
		}
		i := sort.Search(len(k.keys), func(i int) bool { return bytes.Compare(k.keys[i], probe[:]) >= 0 })
		buf := make([]byte, refAllocLen)
		copy(buf, k.keys[i%len(k.keys)])
		k.sink = buf
	}
	k.state = x
}

// stallFloor is the shortest gap between wall time and the process's
// CPU time that counts as a stall: time during which the hypervisor ran
// none of the process's threads. Shorter gaps are the program's own
// (a goroutine hand-off waiting for a thread to wake).
const stallFloor = 50 * time.Microsecond

// stallIn returns how much of a wall interval the process was stalled,
// given the CPU time all its threads used in it.
func stallIn(wall, cpu time.Duration) time.Duration {
	if gap := wall - cpu; gap > stallFloor {
		return gap
	}
	return 0
}

// calib is one calibration: what the whole kernel cost just now, in ns
// of unstalled wall time. It is the median of refParts timed parts scaled
// up, so that one disturbed part does not pass for a slow host.
type calib = float64

func (k *refKernel) calibrate() calib {
	var parts [refParts]float64
	for p := range parts {
		c0, t0 := cpuNow(), time.Now()
		k.part()
		wall := time.Since(t0)
		parts[p] = float64(wall - stallIn(wall, cpuNow()-c0))
	}
	return median(parts[:]) * refParts
}

// kernelAllocs measures what one calibration allocates, so the workload's
// own allocation counts can be reported without the kernel's share.
func (k *refKernel) kernelAllocs() (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	k.calibrate()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// smoothK is how many calibrations on either side of a stretch of work
// vote on the host's speed during it. The host drifts over tens of
// seconds, while a single calibration is off by a fifth whenever a GC
// cycle overlaps it; the median of a couple of seconds of calibrations
// keeps the first and rejects the second.
const smoothK = 8

// hostScale returns the factor that turns a raw duration (wall or CPU),
// taken between calibrations i and i+1 of calibs, into reference units.
func hostScale(calibs []calib, i int) float64 {
	return refNominalNs / median(calibs[max(0, i-smoothK):min(len(calibs), i+2+smoothK)])
}

// window is one timed stretch of the measured phase.
type window struct {
	n              int     // interactions completed in it
	wallNs, cpuNs  float64 // raw; wallNs without stallNs
	stallNs        float64 // time the hypervisor ran none of the process's threads
	calib          int     // index of the calibration taken just before it; the next one follows it
	firstLat, nLat int     // its latency samples are lat[firstLat:firstLat+nLat]
}
