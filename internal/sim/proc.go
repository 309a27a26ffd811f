package sim

import (
	"errors"
	"fmt"
)

// errKilled is panicked inside a parked proc by Shutdown so that its
// goroutine unwinds and exits.
var errKilled = errors.New("sim: proc killed")

type procState int

const (
	procNew procState = iota
	procRunning
	procParked
	procDone
)

// Proc is a simulated process: a goroutine scheduled cooperatively by
// the Kernel in virtual time. All Proc methods must be called from the
// proc's own goroutine while it holds the run token (i.e. from within
// the function passed to Spawn, directly or indirectly). A proc that
// parks keeps the token and runs the kernel's dispatch loop itself
// until the next resume (see Kernel.loop).
type Proc struct {
	k          *Kernel
	id         int
	name       string
	resume     chan struct{}
	state      procState
	waitReason string
	killed     bool
	gone       bool // its goroutine left by runtime.Goexit (see abandon)
	daemon     bool

	// body is the function passed to Spawn, held until the proc's
	// first dispatch starts its goroutine.
	body func(p *Proc)

	// parkPending holds the reason for an armed Park awaiting Block.
	parkPending string
}

// SetDaemon marks the proc as a background service: a simulation where
// only daemons remain blocked is complete, not deadlocked. Use it for
// kernel drain loops and other forever-servers.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// Daemon reports whether the proc is a daemon.
func (p *Proc) Daemon() bool { return p.daemon }

// Kernel returns the kernel this proc runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// ID returns the proc's unique id (spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// WaitReason returns why the proc is blocked ("" when running).
func (p *Proc) WaitReason() string { return p.waitReason }

// main is the body of p's goroutine, started by its first dispatch.
func (p *Proc) main() {
	defer p.exit()
	fn := p.body
	p.body = nil
	fn(p)
}

// exit finishes p. A panic (other than Shutdown's kill) is carried
// home as "sim: proc %q panicked"; otherwise the goroutine carries the
// loop one last time before it ends.
func (p *Proc) exit() {
	if p.gone {
		return
	}
	k := p.k
	r := recover()
	p.finish()
	if r != nil && r != errKilled {
		k.fault = &loopFault{fmt.Sprintf("sim: proc %q panicked: %v", p.name, r)}
		k.goHome()
		return
	}
	k.pass(k.carry(p))
}

// finish marks p done.
func (p *Proc) finish() {
	k := p.k
	p.state = procDone
	k.alive--
	if k.probe != nil {
		k.probe.ProcEvent(k.now, p.name, "done")
	}
}

// abandon ends p when a callback on its goroutine called
// runtime.Goexit: p is done, and Run raises errGoexit.
func (p *Proc) abandon() {
	if p.state != procDone {
		p.finish()
	}
	p.gone = true
	p.k.fault = &loopFault{errGoexit}
	p.k.goHome()
}

// park blocks the proc until some event resumes it. reason is
// recorded for deadlock reports. Meanwhile the proc's goroutine
// carries the dispatch loop: if the next resume is its own, park
// returns without a goroutine switch.
func (p *Proc) park(reason string) {
	p.waitReason = reason
	p.state = procParked
	k := p.k
	if next := k.carry(p); next == p {
		k.running = p
		p.state = procRunning
	} else {
		k.pass(next)
		<-p.resume
	}
	p.waitReason = ""
	if p.killed {
		panic(errKilled)
	}
}

// unpark schedules the proc to resume at the current virtual time,
// after events already queued at this instant. It must be called from
// an event callback or from another running proc.
func (p *Proc) unpark() {
	p.k.schedule(p.k.now, nil, p)
}

// Sleep blocks the proc for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.k.schedule(p.k.now.Add(d), nil, p)
	p.park("sleep")
}

// SleepUntil blocks the proc until the given instant.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.k.now {
		p.Yield()
		return
	}
	p.k.schedule(t, nil, p)
	p.park("sleep-until")
}

// Yield relinquishes the token until all other work scheduled at the
// current instant has run.
func (p *Proc) Yield() {
	p.k.schedule(p.k.now, nil, p)
	p.park("yield")
}

// Park blocks the proc until another process or event calls the
// returned wake function. Calling wake more than once is a no-op; the
// wake function may be called from any simulation context.
//
// Park is the escape hatch used to build higher-level primitives.
func (p *Proc) Park(reason string) (wake func()) {
	woken := false
	wake = func() {
		if woken {
			return
		}
		woken = true
		p.unpark()
	}
	// The caller arms wake *before* blocking, so return first and let
	// the caller invoke Block.
	p.parkPending = reason
	return wake
}

// Block parks the proc; it must follow a Park call that armed a waker.
func (p *Proc) Block() {
	reason := p.parkPending
	p.parkPending = ""
	p.park(reason)
}
