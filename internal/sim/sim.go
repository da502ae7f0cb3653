// Package sim is a deterministic discrete-event simulation kernel. It
// stands in for the paper's physical EC2 testbed: virtual time, coroutine
// processes (client machines, load generators), and multi-server FIFO
// resources (storage-node request queues).
//
// Processes are pooled iter.Pull coroutines: Run pops an event and
// switches to its process, which runs until it parks and switches back,
// so a seeded run is deterministic regardless of GOMAXPROCS. A finished
// process parks in the env's idle pool to run the next Spawn or Fork
// branch, so a warm fan-out starts no coroutine and allocates nothing;
// a Run that drains the event queue, and Stop, end the pool.
package sim

import (
	"iter"
	"time"
)

// event wakes a parked process at a virtual time. Events leave the heap
// in (at, seq) order: earliest at first, and among equal at the lowest
// seq, which Env numbers uniquely in scheduling order, so ties go FIFO.
// The order is strict and total, so every heap yields the same pop
// sequence (TestEventHeapMatchesContainerHeap). yield marks a poll
// wakeup scheduled by Yield: other yielders ignore it when choosing
// their own wake time, so two polling processes can never keep each
// other — and the virtual clock — spinning at one instant.
type event struct {
	at    time.Duration
	seq   int64
	p     *Proc
	yield bool
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events in (at, seq) order. It works
// on the slice directly, so no event is boxed into an interface.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(&s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the first event. It zeroes the vacated slot,
// so the backing array keeps no process alive.
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = event{}
	s = s[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && s[l].before(&s[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && s[r].before(&s[least]) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}

func (h eventHeap) peek() time.Duration { return h[0].at }

// Env is a simulation environment. Create with NewEnv, add processes with
// Spawn, then call Run. Not safe for use from multiple OS threads except
// through the process API.
type Env struct {
	now    time.Duration
	events eventHeap
	seq    int64
	procs  int     // live processes (running or parked)
	idle   []*Proc // finished processes, each coroutine waiting for a task

	resources []*Resource // registered for cleanup in Stop
}

// NewEnv returns an empty environment at virtual time zero.
func NewEnv() *Env { return &Env{} }

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Proc is the handle a process uses to interact with virtual time. It is
// only valid inside the process's own coroutine, and only until the
// process's function returns: the Proc then goes back to the idle pool.
type Proc struct {
	env *Env

	// The coroutine: resume runs it to its next park (yield), stop ends it.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()

	// The task the coroutine runs when next resumed: fn for a Spawn, or
	// branch i of parent's Fork(body). All nil when the process is idle.
	fn     func(p *Proc)
	body   func(c *Proc, i int)
	i      int
	parent *Proc

	pending int // branches of this process's Fork still running
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Spawn registers fn as a new process starting at the current virtual
// time. It may be called before Run or from inside a running process.
func (e *Env) Spawn(fn func(p *Proc)) {
	p := e.proc()
	p.fn = fn
	e.start(p)
}

// proc takes a process from the idle pool or makes one, run to its first
// park, so that even a stop before its first task unwinds through loop.
func (e *Env) proc() *Proc {
	if n := len(e.idle); n > 0 {
		p := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return p
	}
	p := &Proc{env: e}
	//lint:allow goroleak — lifetime bounded by the env: the coroutine runs only while Run or Stop has switched to it; between tasks it parks in the idle pool, which a Run that drains the event queue and Stop both end with stop; a process parked mid-task ends when Stop calls its stop, which unwinds it.
	p.resume, p.stop = iter.Pull(p.loop)
	p.resume()
	return p
}

// start makes p live and queues its first wakeup at the current time.
func (e *Env) start(p *Proc) {
	e.procs++
	e.schedule(e.now, p)
}

// loop is a process coroutine: it parks until it has a task, runs it,
// then goes back to the idle pool and parks again, until stopped.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	defer p.unwound()
	for {
		p.park()
		p.run()
		p.env.procs--
		p.env.idle = append(p.env.idle, p)
	}
}

// stopped is park's panic in a stopped coroutine; loop's root recovers it.
type stopped struct{}

// unwound is the coroutine's root. A task cut short counts itself out
// and, as a Fork branch, stops its parent, which would wait in Fork for
// ever. Any panic but stopped goes on, out of the resume that ran it.
func (p *Proc) unwound() {
	if r := recover(); r != nil && r != (stopped{}) {
		panic(r)
	}
	if p.fn != nil || p.body != nil {
		p.env.procs--
		if p.parent != nil {
			p.parent.stop()
		}
	}
}

// run runs the process's task and clears it. A Fork branch then counts
// itself out of its parent's join, waking the parent after the last.
func (p *Proc) run() {
	if fn := p.fn; fn != nil {
		fn(p)
		p.fn = nil
		return
	}
	p.body(p, p.i)
	parent := p.parent
	p.body, p.parent = nil, nil
	parent.pending--
	if parent.pending == 0 {
		p.env.schedule(p.env.now, parent)
	}
}

// retire ends every idle process's coroutine, one at a time.
func (e *Env) retire() {
	for _, p := range e.idle {
		p.stop()
	}
	clear(e.idle)
	e.idle = e.idle[:0]
}

// schedule queues a wakeup of p without transferring control.
func (e *Env) schedule(at time.Duration, p *Proc) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, p: p})
}

// park switches back until the process is resumed, or panics once it is
// stopped. Its wakeup must already be queued, or be another's to queue.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(stopped{})
	}
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p.env.now+d, p)
	p.park()
}

// Yield parks the process until the next non-yield event — the next
// instant at which some other process makes real progress — resuming in
// FIFO turn behind it. It is the cooperative scheduler's
// runtime.Gosched: a process polling for a condition another process
// must establish yields between polls so the establishing process — and
// virtual time — can advance. Two subtleties make this more than a
// Sleep(0): a zero sleep would reschedule the poller at the current
// time, staying ahead of every future event and freezing the clock; and
// pending *yield* events must be ignored when picking the wake time, or
// two pollers (say, a backfill draining writers and a writer waiting
// out the drain) would treat each other's polls as progress and spin
// the clock frozen forever.
func (p *Proc) Yield() {
	e := p.env
	at := e.now
	found := false
	for _, ev := range e.events {
		if ev.yield {
			continue
		}
		if !found || ev.at < at {
			at, found = ev.at, true
		}
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, p: p, yield: true})
	p.park()
}

// Fork runs body(c, i) for every i in [0, n) as concurrent child
// processes, started in index order at the current time, and returns
// once all of them have completed. It models a client issuing a batch of
// key/value requests in parallel: elapsed virtual time is the max of the
// children, not the sum. The children come from the idle pool, so a
// Fork allocates nothing once the pool holds n processes.
func (p *Proc) Fork(n int, body func(c *Proc, i int)) {
	if n <= 0 {
		return
	}
	e := p.env
	p.pending = n
	for i := 0; i < n; i++ {
		c := e.proc()
		c.body, c.i, c.parent = body, i, p
		e.start(c)
	}
	p.park()
}

// Parallel runs fns as concurrent child processes (see Fork) and returns
// once all of them have completed.
func (p *Proc) Parallel(fns ...func(c *Proc)) { p.Fork(len(fns), func(c *Proc, i int) { fns[i](c) }) }

// Run executes events until the event queue empties or virtual time would
// exceed until (if until > 0), and returns the final virtual time. A Run
// that empties the queue also ends the idle pool's coroutines, so the env
// needs no Stop and can run again; after any other Run, call Stop (or Run
// again) to end the parked coroutines.
func (e *Env) Run(until time.Duration) time.Duration {
	for len(e.events) > 0 {
		if until > 0 && e.events.peek() > until {
			e.now = until
			return e.now
		}
		ev := e.events.pop()
		e.now = ev.at
		ev.p.resume()
	}
	e.retire()
	return e.now
}

// Stop ends all remaining processes (parked on events, on resources or in
// Fork, or idle in the pool) one at a time: each one's deferred calls run
// before the next is stopped, and may queue more wakeups, so Stop repeats
// until none is left. The environment is unusable afterwards.
func (e *Env) Stop() {
	for more := true; more; {
		more = false
		for len(e.events) > 0 {
			e.events.pop().p.stop()
		}
		for _, r := range e.resources {
			for len(r.waiters) > 0 {
				w := r.waiters[0]
				r.waiters = r.waiters[1:]
				w.stop()
				more = true
			}
		}
	}
	e.retire()
}

// Resource is a multi-server FIFO queue in virtual time: up to Servers
// processes hold it concurrently; the rest wait in arrival order. It
// models one storage node's request-processing capacity.
type Resource struct {
	env     *Env
	servers int
	busy    int
	waiters []*Proc
	// Busy time accounting for utilization reports.
	busyTime   time.Duration
	lastChange time.Duration
}

// NewResource creates a resource with the given number of servers.
func (e *Env) NewResource(servers int) *Resource {
	if servers < 1 {
		servers = 1
	}
	r := &Resource{env: e, servers: servers}
	e.resources = append(e.resources, r)
	return r
}

func (r *Resource) accrue() {
	r.busyTime += time.Duration(r.busy) * (r.env.now - r.lastChange)
	r.lastChange = r.env.now
}

// Acquire blocks the process until a server is free.
func (r *Resource) Acquire(p *Proc) {
	if r.busy < r.servers {
		r.accrue()
		r.busy++
		return
	}
	r.waiters = append(r.waiters, p)
	p.park()
	// The releaser incremented busy on our behalf before waking us.
}

// Release frees a server, handing it to the longest-waiting process if any.
func (r *Resource) Release() {
	r.accrue()
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		// busy stays the same: the server passes directly to the waiter.
		r.env.schedule(r.env.now, w)
		return
	}
	r.busy--
}

// Use acquires the resource, holds it for service, then releases it. It
// models a single request visiting a server.
func (r *Resource) Use(p *Proc, service time.Duration) {
	r.Acquire(p)
	p.Sleep(service)
	r.Release()
}

// BusyTime returns the cumulative server-busy virtual time (summed over
// servers), for utilization reporting.
func (r *Resource) BusyTime() time.Duration {
	r.accrue()
	return r.busyTime
}

// QueueLen returns the number of processes waiting (not being served).
func (r *Resource) QueueLen() int { return len(r.waiters) }
