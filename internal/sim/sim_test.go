package sim

import (
	"container/heap"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

const ms = time.Millisecond

// refHeap is the standard library's heap over the (at, seq) order, the
// reference eventHeap is checked against. Less spells the order out
// rather than calling event.before, so the two do not share a mistake.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// TestEventHeapMatchesContainerHeap runs seeded streams of interleaved
// pushes and pops through eventHeap and through container/heap: the two
// must pop the same events in the same order. Times are drawn from a few
// values, so most events tie on at and the order rests on seq; some are
// yield events, which the heap orders like any other.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var got eventHeap
		var want refHeap
		var seq int64
		pops := 0
		for step := 0; step < 20000; step++ {
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: %d events in eventHeap, %d in container/heap", seed, step, len(got), len(want))
			}
			if len(got) > 0 && rng.Intn(5) < 2 {
				g, w := got.pop(), heap.Pop(&want).(event)
				if g != w {
					t.Fatalf("seed %d pop %d: eventHeap gave %+v, container/heap %+v", seed, pops, g, w)
				}
				pops++
				continue
			}
			seq++
			ev := event{at: time.Duration(rng.Intn(8)) * ms, seq: seq, yield: rng.Intn(4) == 0}
			got.push(ev)
			heap.Push(&want, ev)
		}
		for len(want) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(event); g != w {
				t.Fatalf("seed %d draining: eventHeap gave %+v, container/heap %+v", seed, g, w)
			}
			pops++
		}
		if len(got) != 0 || pops < 10000 {
			t.Fatalf("seed %d: %d events left, %d popped", seed, len(got), pops)
		}
	}
}

// TestScheduleAllocations pins the scheduler at zero allocations a
// wakeup: once the heap has grown, a schedule and the pop that fires it
// box nothing. A process sleeps in a loop, and each Run delivers one
// wakeup, which schedules the next.
func TestScheduleAllocations(t *testing.T) {
	e := NewEnv()
	e.Spawn(func(p *Proc) {
		for {
			p.Sleep(ms)
		}
	})
	defer e.Stop()
	step := func() { e.Run(e.Now() + ms) }
	for i := 0; i < 10; i++ {
		step()
	}
	if got := testing.AllocsPerRun(1000, step); got != 0 {
		t.Fatalf("a schedule and pop cycle made %v allocations, want 0", got)
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEnv()
	var at []time.Duration
	e.Spawn(func(p *Proc) {
		p.Sleep(10 * ms)
		at = append(at, p.Now())
		p.Sleep(5 * ms)
		at = append(at, p.Now())
	})
	end := e.Run(0)
	if end != 15*ms {
		t.Fatalf("end = %v, want 15ms", end)
	}
	if len(at) != 2 || at[0] != 10*ms || at[1] != 15*ms {
		t.Fatalf("timestamps = %v", at)
	}
}

func TestInterleavingIsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		var log []string
		for i, d := range []time.Duration{3 * ms, 1 * ms, 2 * ms} {
			i, d := i, d
			e.Spawn(func(p *Proc) {
				p.Sleep(d)
				log = append(log, string(rune('a'+i)))
				p.Sleep(10 * ms)
				log = append(log, string(rune('A'+i)))
			})
		}
		e.Run(0)
		return log
	}
	want := []string{"b", "c", "a", "B", "C", "A"}
	for trial := 0; trial < 5; trial++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("log = %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: log = %v, want %v", trial, got, want)
			}
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn(func(p *Proc) {
			p.Sleep(7 * ms)
			order = append(order, i)
		})
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEnv()
	fired := 0
	e.Spawn(func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10 * ms)
			fired++
		}
	})
	end := e.Run(55 * ms)
	if end != 55*ms {
		t.Fatalf("end = %v", end)
	}
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	e.Stop()
}

func TestResourceQueueing(t *testing.T) {
	// 2 servers, 4 jobs of 10ms arriving together: completions at 10,10,20,20.
	e := NewEnv()
	r := e.NewResource(2)
	var done []time.Duration
	for i := 0; i < 4; i++ {
		e.Spawn(func(p *Proc) {
			r.Use(p, 10*ms)
			done = append(done, p.Now())
		})
	}
	e.Run(0)
	want := []time.Duration{10 * ms, 10 * ms, 20 * ms, 20 * ms}
	if len(done) != 4 {
		t.Fatalf("done = %v", done)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if got := r.BusyTime(); got != 40*ms {
		t.Fatalf("BusyTime = %v, want 40ms", got)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEnv()
	r := e.NewResource(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn(func(p *Proc) {
			p.Sleep(time.Duration(i) * ms) // arrive in index order
			r.Use(p, 100*ms)
			order = append(order, i)
		})
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("not FIFO: %v", order)
		}
	}
}

func TestParallelTakesMax(t *testing.T) {
	e := NewEnv()
	var elapsed time.Duration
	e.Spawn(func(p *Proc) {
		p.Parallel(
			func(c *Proc) { c.Sleep(5 * ms) },
			func(c *Proc) { c.Sleep(30 * ms) },
			func(c *Proc) { c.Sleep(10 * ms) },
		)
		elapsed = p.Now()
	})
	e.Run(0)
	if elapsed != 30*ms {
		t.Fatalf("parallel elapsed = %v, want 30ms", elapsed)
	}
}

func TestParallelEmpty(t *testing.T) {
	e := NewEnv()
	ran := false
	e.Spawn(func(p *Proc) {
		p.Parallel()
		ran = true
	})
	e.Run(0)
	if !ran {
		t.Fatal("process with empty Parallel did not finish")
	}
}

func TestParallelOnSharedResource(t *testing.T) {
	// 8 parallel ops on a 2-server node, 10ms each: 4 waves -> 40ms.
	e := NewEnv()
	r := e.NewResource(2)
	var elapsed time.Duration
	e.Spawn(func(p *Proc) {
		var fns []func(*Proc)
		for i := 0; i < 8; i++ {
			fns = append(fns, func(c *Proc) { r.Use(c, 10*ms) })
		}
		p.Parallel(fns...)
		elapsed = p.Now()
	})
	e.Run(0)
	if elapsed != 40*ms {
		t.Fatalf("elapsed = %v, want 40ms", elapsed)
	}
}

// TestForkRunsBranchesInIndexOrder: Fork's branches start in index
// order at the fork's instant, a branch may fork in turn, and the parent
// resumes once the slowest branch is done.
func TestForkRunsBranchesInIndexOrder(t *testing.T) {
	e := NewEnv()
	var order []int
	var elapsed time.Duration
	e.Spawn(func(p *Proc) {
		p.Sleep(ms)
		p.Fork(3, func(c *Proc, i int) {
			order = append(order, i)
			c.Fork(2, func(g *Proc, j int) { g.Sleep(time.Duration(10*i+j) * ms) })
			order = append(order, 10+i)
		})
		elapsed = p.Now()
	})
	e.Run(0)
	want := []int{0, 1, 2, 10, 11, 12}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if elapsed != 22*ms {
		t.Fatalf("fork elapsed to %v, want 22ms", elapsed)
	}
}

// TestForkReusesFinishedProcesses: a finished branch's coroutine parks in
// the idle pool, so a warm 10-branch Fork allocates nothing: no Proc, no
// closure, no coroutine.
func TestForkReusesFinishedProcesses(t *testing.T) {
	e := NewEnv()
	var procs []*Proc
	record := func(c *Proc, i int) { procs = append(procs, c) }
	empty := func(*Proc, int) {}
	var perFork float64
	e.Spawn(func(p *Proc) {
		p.Fork(10, record)
		p.Fork(10, record)
		perFork = testing.AllocsPerRun(100, func() { p.Fork(10, empty) })
	})
	e.Run(0)
	if perFork != 0 {
		t.Fatalf("a warm 10-branch Fork made %v allocations, want 0", perFork)
	}
	first := map[*Proc]bool{}
	for _, c := range procs[:10] {
		first[c] = true
	}
	for i, c := range procs[10:] {
		if !first[c] {
			t.Fatalf("branch %d of the second Fork started a new process", i)
		}
	}
}

// settles waits for runtime.NumGoroutine to come back to base: a stopped
// coroutine switches back to its stopper just before its goroutine exits.
func settles(base int) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if runtime.NumGoroutine() <= base {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestNoGoroutineOutlivesItsEnv: the idle pool holds coroutines, each on
// a goroutine of its own, between tasks, and none of them outlives the
// env. A Run that drains the event queue retires the pool, so the env
// needs no Stop and can run again; Stop ends the idle coroutines beside
// the parked ones.
func TestNoGoroutineOutlivesItsEnv(t *testing.T) {
	base := runtime.NumGoroutine()
	fanOut := func(p *Proc) {
		p.Fork(10, func(c *Proc, i int) { c.Sleep(time.Duration(i) * ms) })
	}

	e := NewEnv()
	for round := 0; round < 2; round++ {
		e.Spawn(fanOut)
		e.Run(0)
		if len(e.idle) != 0 {
			t.Fatalf("round %d: %d processes idle after a draining Run", round, len(e.idle))
		}
		if !settles(base) {
			t.Fatalf("round %d: %d goroutines after a draining Run, want %d", round, runtime.NumGoroutine(), base)
		}
	}

	e = NewEnv()
	e.Spawn(fanOut)
	e.Spawn(func(p *Proc) { p.Sleep(time.Hour) })
	e.Run(time.Minute)
	if len(e.idle) != 11 {
		t.Fatalf("%d processes idle before Stop, want 11", len(e.idle))
	}
	e.Stop()
	if !settles(base) {
		t.Fatalf("%d goroutines after Stop, want %d", runtime.NumGoroutine(), base)
	}
}

func TestStopReleasesParkedProcesses(t *testing.T) {
	e := NewEnv()
	r := e.NewResource(1)
	e.Spawn(func(p *Proc) { r.Acquire(p); p.Sleep(time.Hour) })
	e.Spawn(func(p *Proc) { r.Acquire(p) }) // will wait forever
	e.Run(10 * ms)
	e.Stop() // must not hang
	if e.procs != 0 {
		t.Fatalf("procs = %d after Stop, want 0", e.procs)
	}
}

// TestStopUnwindsOneProcessAtATime: Stop runs each parked process's
// deferred calls before it wakes the next, so defers may share state
// without locks, as the processes themselves do (-race checks it).
func TestStopUnwindsOneProcessAtATime(t *testing.T) {
	e := NewEnv()
	unwound := 0
	for i := 0; i < 4; i++ {
		e.Spawn(func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(time.Hour)
		})
	}
	e.Run(10 * ms)
	e.Stop()
	if unwound != 4 {
		t.Fatalf("%d of 4 processes unwound by the time Stop returned", unwound)
	}
}

func TestSpawnFromInsideProcess(t *testing.T) {
	e := NewEnv()
	var childTime time.Duration
	e.Spawn(func(p *Proc) {
		p.Sleep(5 * ms)
		p.Env().Spawn(func(c *Proc) {
			c.Sleep(3 * ms)
			childTime = c.Now()
		})
	})
	e.Run(0)
	if childTime != 8*ms {
		t.Fatalf("child finished at %v, want 8ms", childTime)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEnv()
	e.Spawn(func(p *Proc) { p.Sleep(-5 * ms) })
	if end := e.Run(0); end != 0 {
		t.Fatalf("end = %v, want 0", end)
	}
}

func TestQueueLen(t *testing.T) {
	e := NewEnv()
	r := e.NewResource(1)
	var sawQueue int
	for i := 0; i < 3; i++ {
		e.Spawn(func(p *Proc) { r.Use(p, 10*ms) })
	}
	e.Spawn(func(p *Proc) {
		p.Sleep(5 * ms)
		sawQueue = r.QueueLen()
	})
	e.Run(0)
	if sawQueue != 2 {
		t.Fatalf("QueueLen at t=5ms = %d, want 2", sawQueue)
	}
}

// TestProcessPanicReachesRun: a panic in a process, or in a Fork branch,
// comes out of the Run that resumed it with the value it was raised with.
func TestProcessPanicReachesRun(t *testing.T) {
	type boom struct{ at time.Duration }
	for _, tc := range []struct {
		name string
		fn   func(p *Proc)
		want boom
	}{
		{"process", func(p *Proc) { p.Sleep(ms); panic(boom{p.Now()}) }, boom{ms}},
		{"branch", func(p *Proc) {
			p.Fork(2, func(c *Proc, i int) {
				c.Sleep(time.Duration(i+1) * ms)
				if i == 1 {
					panic(boom{c.Now()})
				}
			})
		}, boom{2 * ms}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEnv()
			e.Spawn(tc.fn)
			got := func() (r any) {
				defer func() { r = recover() }()
				e.Run(0)
				return "Run returned"
			}()
			if got != tc.want {
				t.Fatalf("Run panicked with %v, want %v", got, tc.want)
			}
		})
	}
}

// TestStopUnwindsAProcessThatParksInADefer: a process Stop unwinds may
// park again in a deferred call. A deferred Sleep or Acquire returns at
// once into the unwind, and a deferred Release hands its server to a
// waiter, which Stop then ends too: Stop returns with no process left
// and no coroutine running.
func TestStopUnwindsAProcessThatParksInADefer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		after func(p *Proc, r *Resource)
	}{
		{"sleep", func(p *Proc, _ *Resource) { p.Sleep(ms) }},
		{"acquire", func(p *Proc, r *Resource) { r.Acquire(p) }},
		{"release", func(_ *Proc, r *Resource) { r.Release() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEnv()
			r1, r2 := e.NewResource(1), e.NewResource(1)
			unwound := 0
			// The first process holds r1 and sleeps. The second holds r2
			// and waits on r1, and the third waits on r2, so the second's
			// deferred call runs as Stop ends r1's waiters, and a Release
			// there hands r2 to the third after Stop has passed the events.
			e.Spawn(func(p *Proc) {
				defer func() { unwound++ }()
				r1.Acquire(p)
				p.Sleep(time.Hour)
			})
			e.Spawn(func(p *Proc) {
				defer func() { unwound++ }()
				r2.Acquire(p)
				defer tc.after(p, r2)
				p.Sleep(ms)
				r1.Acquire(p)
			})
			e.Spawn(func(p *Proc) {
				defer func() { unwound++ }()
				defer tc.after(p, r2)
				p.Sleep(ms)
				r2.Acquire(p)
			})
			e.Run(10 * ms)
			e.Stop()
			if e.procs != 0 || unwound != 3 {
				t.Fatalf("after Stop: procs = %d, %d of 3 processes unwound", e.procs, unwound)
			}
			if !settles(base) {
				t.Fatalf("%d goroutines after Stop, want %d", runtime.NumGoroutine(), base)
			}
		})
	}
}

// TestStopEndsAForkWaitingOnItsBranches: a process parked in Fork waits
// on no event and no resource; Stop ends it when it ends its branches,
// at every level of a nested fork, and runs its defers.
func TestStopEndsAForkWaitingOnItsBranches(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv()
	unwound := 0
	e.Spawn(func(p *Proc) {
		defer func() { unwound++ }()
		p.Fork(3, func(c *Proc, i int) {
			defer func() { unwound++ }()
			c.Fork(2, func(g *Proc, j int) { g.Sleep(time.Hour) })
		})
	})
	e.Run(ms)
	e.Stop()
	if e.procs != 0 || unwound != 4 {
		t.Fatalf("after Stop: procs = %d, %d of 4 forking processes unwound", e.procs, unwound)
	}
	if !settles(base) {
		t.Fatalf("%d goroutines after Stop, want %d", runtime.NumGoroutine(), base)
	}
}
