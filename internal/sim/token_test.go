package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// The run token carries the dispatch loop: a parking proc pops the
// next events itself. These tests pin the handoff rules with the
// kernel's handoff counter (one per goroutine start, channel send to a
// proc, or return of the token to Run's goroutine).

// TestSleepLoopMakesNoHandoff: a lone proc's sleeps resume it on its
// own goroutine, so after its start the token never changes goroutine
// until the proc finishes and the token goes home.
func TestSleepLoopMakesNoHandoff(t *testing.T) {
	k := NewKernel(1)
	var first, last uint64
	k.Spawn("sleeper", func(p *Proc) {
		first = k.handoffs
		for i := 0; i < 1000; i++ {
			p.Sleep(Microsecond)
		}
		last = k.handoffs
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if first != 1 || last != first {
		t.Fatalf("handoffs at start %d, after 1000 sleeps %d; want 1 and 1", first, last)
	}
	if k.handoffs != 2 {
		t.Fatalf("run made %d handoffs, want 2 (start, home)", k.handoffs)
	}
	if k.Now() != Time(1000*Microsecond) {
		t.Fatalf("clock at %v", k.Now())
	}
}

// TestPingPongOneHandoffPerSwitch: two procs waking each other through
// Park/wake pass the token proc to proc, one handoff per switch, where
// a kernel-loop round trip would cost two.
func TestPingPongOneHandoffPerSwitch(t *testing.T) {
	const rounds = 500
	k := NewKernel(1)
	var wake [2]func()
	switches := 0
	player := func(me int) func(p *Proc) {
		return func(p *Proc) {
			for r := 0; r < rounds; r++ {
				w := p.Park("ping-pong")
				if other := wake[1-me]; other != nil {
					wake[1-me] = nil
					other()
				}
				wake[me] = w
				p.Block()
				switches++
			}
			if other := wake[1-me]; other != nil {
				wake[1-me] = nil
				other()
			}
		}
	}
	k.Spawn("ping", player(0))
	k.Spawn("pong", player(1))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if switches != 2*rounds {
		t.Fatalf("%d switches, want %d", switches, 2*rounds)
	}
	if want := uint64(2 + switches + 1); k.handoffs != want {
		t.Fatalf("%d handoffs for %d switches, want %d (2 starts + 1 per switch + home)",
			k.handoffs, switches, want)
	}
}

// TestCallbackPanicOnProcGoroutineReRaised: a callback that panics
// while a parked proc's goroutine carries the loop surfaces from Run,
// on the caller's goroutine, with its original value; the proc stays
// parked and Shutdown still reaps it.
func TestCallbackPanicOnProcGoroutineReRaised(t *testing.T) {
	k := NewKernel(1)
	boom := errors.New("callback boom")
	var handoffsAtCallback uint64
	k.Spawn("carrier", func(p *Proc) { p.Sleep(10 * Microsecond) })
	k.At(Time(5*Microsecond), func() {
		handoffsAtCallback = k.handoffs
		panic(boom)
	})
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("Run raised %v, want the callback's own value", r)
			}
		}()
		_ = k.Run()
		t.Fatal("Run returned normally")
	}()
	if handoffsAtCallback != 1 {
		t.Fatalf("callback ran after %d handoffs, want 1 (on the proc's goroutine)", handoffsAtCallback)
	}
	if got := k.Blocked(); len(got) != 1 || got[0].Name() != "carrier" {
		t.Fatalf("blocked after panic: %v", got)
	}
	k.Shutdown()
	if k.Alive() != 0 {
		t.Fatalf("%d procs alive after Shutdown", k.Alive())
	}
}

// TestCallbackGoexitOnProcGoroutine: runtime.Goexit in a callback on
// a proc's goroutine (a parking or a finishing proc) cannot unwind
// Run's goroutine, so Run panics instead of waiting forever for the
// token, and the proc whose goroutine left is done.
func TestCallbackGoexitOnProcGoroutine(t *testing.T) {
	for name, body := range map[string]func(p *Proc){
		"parking":   func(p *Proc) { p.Sleep(10 * Microsecond) },
		"finishing": func(p *Proc) {},
	} {
		k := NewKernel(1)
		k.Spawn(name, body)
		k.At(Time(5*Microsecond), func() { runtime.Goexit() })
		func() {
			defer func() {
				if r := recover(); r != errGoexit {
					t.Fatalf("%s: Run raised %v, want errGoexit", name, r)
				}
			}()
			_ = k.Run()
		}()
		k.Shutdown()
		if k.Alive() != 0 {
			t.Fatalf("%s: %d procs alive after Goexit", name, k.Alive())
		}
	}
}

// TestRunningNilInCallbacksOnProcGoroutine: callbacks see no running
// proc even when a proc's goroutine dispatches them, and the proc sees
// itself again once resumed.
func TestRunningNilInCallbacksOnProcGoroutine(t *testing.T) {
	k := NewKernel(1)
	var inCallback, afterSleep *Proc
	var handoffsAtCallback uint64
	sleeper := k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		afterSleep = k.Running()
	})
	k.At(Time(5*Microsecond), func() {
		inCallback = k.Running()
		handoffsAtCallback = k.handoffs
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if handoffsAtCallback != 1 {
		t.Fatalf("callback ran after %d handoffs, want 1 (on the proc's goroutine)", handoffsAtCallback)
	}
	if inCallback != nil {
		t.Fatalf("Running() = %q inside a callback", inCallback.Name())
	}
	if afterSleep != sleeper {
		t.Fatal("Running() is not the proc after its own resume")
	}
	if k.Running() != nil {
		t.Fatal("Running() is not nil after Run")
	}
}

// TestShutdownLeavesNoProcGoroutine: after Run and Shutdown, finished,
// deadlocked and killed procs have no goroutine left behind.
func TestShutdownLeavesNoProcGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	for i := 0; i < 4; i++ {
		k.Spawn("finisher", func(p *Proc) { p.Sleep(Microsecond) })
	}
	k.Spawn("deadlocked", func(p *Proc) {
		p.Park("never woken")
		p.Block()
	})
	d := k.Spawn("daemon", func(p *Proc) {
		for {
			p.Park("serve")
			p.Block()
		}
	})
	d.SetDaemon(true)
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(Microsecond)
		k.Stop()
		p.Sleep(Second)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("first run: %v", err)
	}
	var dl *DeadlockError
	if err := k.Run(); !errors.As(err, &dl) || len(dl.Procs) != 1 || dl.Procs[0].Name != "deadlocked" {
		t.Fatalf("second run: %v, want a deadlock naming only \"deadlocked\"", err)
	}
	k.Shutdown()
	if k.Alive() != 0 {
		t.Fatalf("%d procs alive after Shutdown", k.Alive())
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines after Shutdown, %d before Run", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
