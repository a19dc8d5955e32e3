//go:build go1.23

//fvlint:hotpath
package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated sequential process (a software thread, a hardware
// finite-state machine, ...). Each Proc is a coroutine (iter.Pull): the
// scheduler resumes it by calling next, and it gives control back by
// yielding, so exactly one of them — the scheduler or a single process
// — ever runs and execution is fully deterministic. A process panic
// surfaces from the next call, on the goroutine that called Run, RunUntil
// or Step, with its original value.
//
// Inside the process function, the Proc methods Sleep, Wait and Park
// block in *simulated* time by yielding back to the scheduler.
//
// Under Run/RunUntil a parking or finishing process first drains the
// event queue on its own coroutine (see suspend): callback events execute
// inline, and a wake of the same process returns straight back to it
// with no switch at all. Only a wake of a different process costs a
// switch: the process stores it in Sim.handoff and yields, and the
// scheduler loop resumes it. The event execution order is exactly the
// (at, seq) order either way; which coroutine drives the dispatch is
// not a simulated observable.
//
// Finished processes are pooled: the coroutine is reused by the next
// Go/GoAfter, so per-operation process spawns (one per ping, one per
// interrupt) do not allocate in steady state. The spawn generation
// counter catches the one hazard pooling introduces — a stale wake
// event resuming a recycled process — by panicking instead of silently
// corrupting the schedule.
type Proc struct {
	sim     *Sim
	name    string
	next    func() (struct{}, bool) // switch to the process
	yield   func(struct{}) bool     // switch back to the scheduler
	fn      func(p *Proc)
	gen     uint32 // spawn generation; bumped when returned to the pool
	why     string // park reason, read by deadlock detection
	parkIdx int    // index in sim.parked while parked
}

// Go spawns a process that starts executing at the current simulation
// time (after already-queued events at this timestamp).
func (s *Sim) Go(name string, fn func(p *Proc)) *Proc {
	return s.GoAfter(0, name, fn)
}

// GoAfter spawns a process that starts after delay d.
func (s *Sim) GoAfter(d Duration, name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(s.procPool); n > 0 {
		p = s.procPool[n-1]
		s.procPool[n-1] = nil
		s.procPool = s.procPool[:n-1]
		p.name = name
	} else {
		p = &Proc{sim: s, name: name}
		p.next, _ = iter.Pull(p.loop)
	}
	p.fn = fn
	s.procs++
	s.ResumeAfter(d, "start", p)
	return p
}

// loop is the pooled process coroutine: it runs one body per spawn, and
// between spawns it sits suspended until the scheduler resumes it with
// a new body. A callback drained inline may respawn this very process
// (LIFO pool reuse) and fire its start event: then suspend returns at
// once and the fresh body runs without a switch.
func (p *Proc) loop(yield func(struct{}) bool) {
	s := p.sim
	p.yield = yield
	for {
		fn := p.fn
		p.fn = nil
		fn(p)
		s.procs--
		p.gen++
		s.procPool = append(s.procPool, p)
		p.suspend()
	}
}

// suspend gives up control after the process parks or finishes and
// returns when it is resumed. Under Run/RunUntil it first drains the
// event queue on this coroutine, firing callback events inline, until
// one of:
//
//   - the next event resumes this very process (the self-wake fast
//     path): return with no switch at all;
//   - the next event resumes another process: store it in s.handoff for
//     the scheduler loop to resume, and yield;
//   - nothing runnable remains (or Stop was called): yield.
//
// Under Step it yields at once.
func (p *Proc) suspend() {
	s := p.sim
	for s.running && !s.stopped {
		e := s.popLive(s.deadline)
		if e == nil {
			break
		}
		q := s.take(e)
		if q == p {
			return
		}
		if q != nil {
			s.handoff = q
			break
		}
	}
	p.yield(struct{}{})
}

// park suspends the process until some event resumes it. why should be
// a precomputed string: it is only read if the simulation deadlocks.
// The process registers itself in the parked set *before* giving up
// control, so deadlock detection can never miss it.
func (p *Proc) park(why string) {
	s := p.sim
	p.why = why
	p.parkIdx = len(s.parked)
	s.parked = append(s.parked, p)
	p.suspend()
	n := len(s.parked) - 1
	last := s.parked[n]
	s.parked[p.parkIdx] = last
	last.parkIdx = p.parkIdx
	s.parked[n] = nil
	s.parked = s.parked[:n]
}

// Park suspends the process until an event resumes it; pair it with
// Sim.ResumeAfter. Exactly one resume must be scheduled per Park — the
// strict hand-off model has no spurious wakeups. why is reported when
// deadlock detection trips.
func (p *Proc) Park(why string) { p.park(why) }

// Name reports the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Sim returns the scheduler this process runs under.
func (p *Proc) Sim() *Sim { return p.sim }

// Now reports the current simulation time.
func (p *Proc) Now() Time { return p.sim.now }

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: negative sleep %v", p.name, d))
	}
	if d == 0 {
		return
	}
	p.sim.atProc(p.sim.now.Add(d), "wake", p)
	p.park("sleeping")
}

// Trigger is a one-shot event: processes that Wait before Fire are
// suspended until it fires; waits after it has fired return immediately.
// It models completions (a DMA finishing, an interrupt being serviced).
// A fired trigger can be re-armed with Reset, so long-lived operations
// reuse one trigger instead of allocating per completion.
type Trigger struct {
	sim      *Sim
	name     string
	parkName string
	fired    bool
	waiters  []*Proc
}

// NewTrigger returns an unfired trigger bound to s.
func NewTrigger(s *Sim, name string) *Trigger {
	return &Trigger{sim: s, name: name, parkName: s.internName("trigger:", name)}
}

// Fired reports whether the trigger has fired.
func (t *Trigger) Fired() bool { return t.fired }

// Wait suspends p until the trigger fires. If it already fired, Wait
// returns immediately without yielding.
func (t *Trigger) Wait(p *Proc) {
	if t.fired {
		return
	}
	t.waiters = append(t.waiters, p)
	p.park(t.parkName)
}

// Fire marks the trigger fired and wakes all waiters in FIFO order.
// Firing twice panics: a completion happens once.
func (t *Trigger) Fire() {
	if t.fired {
		panic("sim: trigger " + t.name + " fired twice")
	}
	t.fired = true
	for i, p := range t.waiters {
		t.sim.atProc(t.sim.now, "fire", p)
		t.waiters[i] = nil
	}
	t.waiters = t.waiters[:0]
}

// Reset re-arms a fired trigger for reuse. Resetting with waiters still
// parked panics: they would wait for a completion that already passed.
func (t *Trigger) Reset() {
	if len(t.waiters) != 0 {
		panic("sim: trigger " + t.name + " reset with parked waiters")
	}
	t.fired = false
}

// Cond is a condition variable for processes. The zero value is unusable;
// create with NewCond.
type Cond struct {
	sim      *Sim
	name     string
	parkName string
	waiters  []*Proc
}

// NewCond returns a condition variable bound to s.
func NewCond(s *Sim, name string) *Cond {
	return &Cond{sim: s, name: name, parkName: s.internName("wait:", name)}
}

// Wait suspends p until Broadcast or Signal. Spurious wakeups do not
// occur, but callers that wait on shared state should still re-check
// their predicate in a loop, as several waiters may be released at once.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park(c.parkName)
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	c.sim.atProc(c.sim.now, "signal", p)
}

// Broadcast wakes all waiting processes in FIFO order.
func (c *Cond) Broadcast() {
	for i, p := range c.waiters {
		c.sim.atProc(c.sim.now, "broadcast", p)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}

// Waiters reports how many processes are blocked on c.
func (c *Cond) Waiters() int { return len(c.waiters) }
