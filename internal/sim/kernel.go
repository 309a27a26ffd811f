package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Kernel is a deterministic discrete-event simulation kernel.
// Create one with NewKernel, spawn processes with Spawn, and drive the
// simulation with Run or RunUntil. A Kernel must not be shared between
// host goroutines: all access happens either before Run or from within
// simulated processes and scheduled events, which run one at a time on
// whichever goroutine holds the run token (see loop).
type Kernel struct {
	now Time
	seq uint64
	rng *rand.Rand

	// Pending events live in two places: a 4-ary min-heap for future
	// timestamps, and a FIFO (nowQ[nowHead:]) for events scheduled at
	// the current instant. The FIFO is the fast path — process wakeups,
	// token handoffs, and Spawn all schedule "at now" — and it is
	// already in (at, seq) order because seq is monotonic and the queue
	// only ever receives events stamped with the current time. Every
	// event in the heap predates every event in the FIFO that shares
	// its timestamp (it was pushed while now was still earlier, hence
	// with a smaller seq), so dispatch just compares the two fronts.
	events  []*event
	nowQ    []*event
	nowHead int

	// free is the event shell pool; nCanceled counts canceled shells
	// still resident, for compaction.
	free      []*event
	nCanceled int

	// The run token and the dispatch loop travel together (see
	// loop): home is where the goroutine that called Run, RunUntil or
	// the shard loop waits for the token to come back; deadline and
	// safe bound the current run; ran counts the work items it popped.
	// A panic raised on a proc's goroutine while it carried the loop
	// is parked in fault until the home goroutine re-raises it.
	running  *Proc // the proc currently holding the run token, if any
	home     chan struct{}
	deadline Time
	safe     Time
	ran      uint64
	fault    *loopFault
	handoffs uint64 // goroutine handoffs of the run token, for tests

	procs   []*Proc // all procs ever spawned
	alive   int     // procs spawned but not yet finished
	nextID  int
	stopped bool
	probe   Probe

	// compactions counts lazy-cancel sweeps over the kernel's lifetime
	// (see event.go); exposed so the trace registry can verify the
	// compaction policy under cancel-heavy loads.
	compactions uint64

	// Sharded execution (see shard.go): the group this kernel belongs
	// to and its shard index, nil/0 for a standalone kernel.
	group *Group
	shard int
}

// Probe observes process lifecycle transitions. It exists so a tracing
// layer can watch the kernel without sim importing it; observation must
// not schedule events or touch the clock.
type Probe interface {
	ProcEvent(at Time, proc string, what string)
}

// CompactionProbe is an optional extension of Probe: a probe that also
// implements it observes every lazy-cancel compaction sweep (at the
// virtual time it ran, with the number of canceled shells swept).
type CompactionProbe interface {
	QueueCompaction(at Time, swept int)
}

// SetProbe installs (or, with nil, removes) the lifecycle probe.
func (k *Kernel) SetProbe(p Probe) { k.probe = p }

// Compactions returns how many lazy-cancel compaction sweeps the
// kernel has performed over its lifetime.
func (k *Kernel) Compactions() uint64 { return k.compactions }

// NewKernel returns a kernel with its virtual clock at zero. The seed
// feeds the kernel's random source, which is used only by components
// that explicitly ask for randomness (e.g. random backoff); the kernel
// itself is deterministic for a given seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:  rand.New(rand.NewSource(seed)),
		home: make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// At schedules fn to run at time at (clamped to the present) and
// returns a Timer that can cancel it. Steady-state scheduling is
// allocation-free: the shell comes from the kernel's pool.
func (k *Kernel) At(at Time, fn func()) Timer {
	ev := k.schedule(at, fn, nil)
	return Timer{ev: ev, gen: ev.gen}
}

// schedule queues one event: a callback fn, or, when p is non-nil, a
// resume of proc p. Both kinds take the next seq, so a resume orders
// against callbacks exactly as the closure it replaces did.
func (k *Kernel) schedule(at Time, fn func(), p *Proc) *event {
	if at < k.now {
		at = k.now
	}
	ev := k.alloc()
	ev.at = at
	ev.seq = k.seq
	ev.fn = fn
	ev.proc = p
	k.seq++
	if at == k.now {
		ev.index = nowIdx
		k.nowQ = append(k.nowQ, ev)
	} else {
		k.heapPush(ev)
	}
	return ev
}

// After schedules fn to run d from now.
func (k *Kernel) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now.Add(d), fn)
}

// Spawn creates a new simulated process running fn. The process starts
// at the current virtual time, after already-scheduled work at this
// instant; its goroutine is started by that first dispatch. The name
// appears in deadlock reports and traces.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		k:      k,
		id:     k.nextID,
		name:   name,
		resume: make(chan struct{}),
		state:  procNew,
		body:   fn,
	}
	k.nextID++
	k.procs = append(k.procs, p)
	k.alive++
	if k.probe != nil {
		k.probe.ProcEvent(k.now, name, "spawn")
	}
	k.schedule(k.now, nil, p)
	return p
}

// The dispatch loop travels with the run token. Run, RunUntil and the
// shard loop start it on their own goroutine (the run's home). When it
// pops a proc's resume it hands the token, and the loop with it, to
// that proc's goroutine. When a proc parks or finishes, its goroutine
// carries on popping events itself, running plain callbacks inline,
// until the loop stops at one of three exits:
//
//   - the next resume is the parking proc's own: park just returns,
//     with no goroutine switch at all (the common case of a sleep);
//   - it is another proc's: the token goes straight to that proc's
//     goroutine, one channel send (or the go statement that starts a
//     proc on its first dispatch);
//   - nothing is dispatchable under the run's bound, or the run was
//     stopped: the token goes back home.
//
// A panic in a callback run on a proc's goroutine, and a proc's own
// panic, are carried home and re-raised from Run on the caller's
// goroutine. Virtual order cannot change: there is one queue, every
// event (resumes included) takes its seq when it is scheduled, and the
// loop pops in (at, seq) order whichever goroutine runs it.

// loop dispatches work items under the current run's bound until it
// pops a proc's resume, which it returns, or runs dry or is stopped,
// returning nil. Callbacks run with no proc holding the token. For a
// shard the bound is the grant run's (safe, deadline), staged crosses
// merge ahead of local events at equal timestamps in (src, seq) order,
// and the group's stop flag ends the run like Stop.
func (k *Kernel) loop() *Proc {
	k.running = nil
	g, deadline, safe := k.group, k.deadline, k.safe
	for !k.stopped {
		ev := k.front()
		if g != nil {
			if g.stopFlag.Load() {
				break
			}
			if h := g.staging[k.shard].h; len(h) > 0 && (ev == nil || h[0].at <= ev.at) {
				if h[0].at > deadline || h[0].at >= safe {
					break
				}
				ce := g.staging[k.shard].pop()
				if ce.at < k.now {
					panic("sim: cross-shard event arrived in the past")
				}
				k.now = ce.at
				k.ran++
				g.dispatched[k.shard]++
				ce.fn()
				continue
			}
			if ev != nil && ev.at >= safe {
				break
			}
		}
		if ev == nil || ev.at > deadline {
			break
		}
		k.popFront(ev)
		k.ran++
		if ev.canceled {
			k.nCanceled--
			k.recycle(ev)
			continue
		}
		k.now = ev.at
		fn, p := ev.fn, ev.proc
		k.recycle(ev)
		if p == nil {
			fn()
		} else if p.state != procDone {
			return p
		}
	}
	return nil
}

// loopFault is a panic carried home from a proc's goroutine.
type loopFault struct{ val any }

// errGoexit is raised from Run when a callback run on a proc's
// goroutine called runtime.Goexit (t.FailNow, say), which cannot be
// carried home itself.
var errGoexit = errors.New("sim: event callback called runtime.Goexit")

// carry runs the loop on the goroutine of p (parking or finishing). A
// panic in a callback it dispatched must not unwind into p's own code:
// it is stored for the home goroutine, and the caller sends the token
// home. A Goexit cannot be stopped, so p ends with its goroutine and
// the token goes home from here.
func (k *Kernel) carry(p *Proc) (next *Proc) {
	ok := false
	defer func() {
		if ok {
			return
		}
		if r := recover(); r != nil {
			k.fault = &loopFault{r}
			next = nil
			return
		}
		p.abandon()
	}()
	next = k.loop()
	ok = true
	return next
}

// switchTo hands the run token to p: a send on p's channel, or, on
// p's first dispatch, the start of its goroutine. The caller then
// waits on its own channel or exits.
func (k *Kernel) switchTo(p *Proc) {
	k.running = p
	k.handoffs++
	if p.state == procNew {
		p.state = procRunning
		go p.main()
		return
	}
	p.state = procRunning
	p.resume <- struct{}{}
}

// pass hands the token on after a carried loop: to next, or home.
func (k *Kernel) pass(next *Proc) {
	if next != nil {
		k.switchTo(next)
		return
	}
	k.goHome()
}

// goHome returns the run token to the goroutine waiting in awaitHome.
func (k *Kernel) goHome() {
	k.running = nil
	k.handoffs++
	k.home <- struct{}{}
}

// awaitHome waits on the home goroutine for the token to come back
// and re-raises any panic carried with it.
func (k *Kernel) awaitHome() {
	<-k.home
	if f := k.fault; f != nil {
		k.fault = nil
		panic(f.val)
	}
}

// drive runs the loop from the home goroutine under (deadline, safe)
// and returns once the token is back home.
func (k *Kernel) drive(deadline, safe Time) {
	k.deadline, k.safe = deadline, safe
	if p := k.loop(); p != nil {
		k.switchTo(p)
		k.awaitHome()
	}
}

// Running returns the proc currently holding the run token, or nil
// while an event callback runs (on whichever goroutine carries the
// loop) and outside a run.
func (k *Kernel) Running() *Proc { return k.running }

// Alive reports the number of spawned processes that have not finished.
func (k *Kernel) Alive() int { return k.alive }

// Scheduled returns how many events have been scheduled over the
// kernel's lifetime (including later-canceled ones). It is the
// host-side work proxy behind events-per-message efficiency metrics:
// fewer scheduled events for the same delivered traffic means a
// cheaper simulation.
func (k *Kernel) Scheduled() uint64 { return k.seq }

// Stop makes Run return after the current event completes. Pending
// events remain queued; a subsequent Run resumes them.
func (k *Kernel) Stop() { k.stopped = true }

// front returns the earliest pending event without removing it, or
// nil when nothing is queued. Canceled shells are still visible here;
// the dispatch loops sweep them.
func (k *Kernel) front() *event {
	hasNow := k.nowHead < len(k.nowQ)
	hasHeap := len(k.events) > 0
	switch {
	case hasNow && hasHeap:
		if eventLess(k.nowQ[k.nowHead], k.events[0]) {
			return k.nowQ[k.nowHead]
		}
		return k.events[0]
	case hasNow:
		return k.nowQ[k.nowHead]
	case hasHeap:
		return k.events[0]
	}
	return nil
}

// popFront removes ev, which must be the event front() just returned.
func (k *Kernel) popFront(ev *event) {
	if ev.index == nowIdx {
		k.nowQ[k.nowHead] = nil
		k.nowHead++
		if k.nowHead == len(k.nowQ) {
			k.nowQ = k.nowQ[:0]
			k.nowHead = 0
		}
		ev.index = freeIdx
		return
	}
	k.heapPop()
}

// Run dispatches events until the event queue drains or Stop is
// called. If processes remain blocked when the queue drains, Run
// returns a *DeadlockError describing them; the processes stay parked
// and can be cleaned up with Shutdown.
func (k *Kernel) Run() error {
	k.stopped = false
	k.drive(maxDeadline, maxDeadline)
	if k.stopped {
		return nil
	}
	for _, p := range k.procs {
		if (p.state == procParked || p.state == procNew) && !p.daemon {
			return k.deadlockError()
		}
	}
	return nil
}

// RunFor advances the simulation by at most d, then returns. Parked
// processes are not a deadlock under RunFor: they may be awaiting
// events that the caller will inject later.
func (k *Kernel) RunFor(d Duration) { k.RunUntil(k.now.Add(d)) }

// RunUntil dispatches events with timestamps <= deadline and then sets
// the clock to deadline (if it is in the future). An event scheduled
// exactly at the deadline fires.
func (k *Kernel) RunUntil(deadline Time) {
	k.stopped = false
	k.drive(deadline, maxDeadline)
	if !k.stopped && k.now < deadline {
		k.now = deadline
	}
}

// Shutdown kills all parked processes so their goroutines exit. It is
// safe to call after Run returns (including after a deadlock). The
// kernel stays stopped meanwhile, so a dying proc dispatches nothing
// on its way out.
func (k *Kernel) Shutdown() {
	k.stopped = true
	for _, p := range k.procs {
		if p.state == procParked {
			p.killed = true
			k.switchTo(p)
			k.awaitHome()
		}
	}
}

// Blocked returns the processes currently parked on a simulation
// primitive, in spawn order. Useful for debugging tools (cdb).
func (k *Kernel) Blocked() []*Proc {
	var out []*Proc
	for _, p := range k.procs {
		if p.state == procParked {
			out = append(out, p)
		}
	}
	return out
}

func (k *Kernel) deadlockError() *DeadlockError {
	err := &DeadlockError{At: k.now}
	for _, p := range k.procs {
		if (p.state == procParked || p.state == procNew) && !p.daemon {
			err.Procs = append(err.Procs, BlockedProc{
				Name:   p.name,
				Reason: p.waitReason,
			})
		}
	}
	sort.Slice(err.Procs, func(i, j int) bool { return err.Procs[i].Name < err.Procs[j].Name })
	return err
}

// BlockedProc describes one process stuck at deadlock time.
type BlockedProc struct {
	Name   string
	Reason string
}

// DeadlockError reports that the event queue drained while processes
// were still blocked — the simulated application is deadlocked.
type DeadlockError struct {
	At    Time
	Procs []BlockedProc
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at %v with %d blocked proc(s):", e.At, len(e.Procs))
	for _, p := range e.Procs {
		fmt.Fprintf(&b, " [%s: %s]", p.Name, p.Reason)
	}
	return b.String()
}
