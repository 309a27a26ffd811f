package sim

import "testing"

// TestCanceledTimerSweep is the regression test for the canceled-timer
// leak: a workload that schedules and immediately stops a million
// timers must not accumulate their shells in the pending store (the
// old heap kept every canceled entry until its timestamp came up).
func TestCanceledTimerSweep(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	for i := 0; i < 1_000_000; i++ {
		tm := k.After(Duration(i%1000+1)*Microsecond, func() { fired++ })
		if !tm.Stop() {
			t.Fatalf("timer %d: Stop reported not pending", i)
		}
	}
	if got := k.pendingLen(); got > 2*compactMin {
		t.Fatalf("pending store holds %d shells after 1M cancels, want <= %d", got, 2*compactMin)
	}
	if len(k.free) > maxFreeEvents {
		t.Fatalf("free list grew to %d, cap is %d", len(k.free), maxFreeEvents)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("%d canceled timers fired", fired)
	}
}

// TestCanceledSweepKeepsLiveOrder verifies compaction never reorders
// the survivors: live timers interleaved with a flood of cancels still
// fire in exact (time, schedule-order) sequence.
func TestCanceledSweepKeepsLiveOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	n := 0
	for i := 0; i < 10_000; i++ {
		i := i
		tm := k.At(k.Now().Add(Duration(10_000-i)*Microsecond), func() { got = append(got, i) })
		if i%10 != 0 {
			tm.Stop()
		} else {
			n++
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("fired %d, want %d", len(got), n)
	}
	for j := 1; j < len(got); j++ {
		if got[j-1] < got[j] { // times descend with i, so i must descend
			t.Fatalf("out of order at %d: %d before %d", j, got[j-1], got[j])
		}
	}
}

// TestRunUntilEventExactlyAtDeadline: an event scheduled exactly at
// the deadline fires, and the clock lands on the deadline.
func TestRunUntilEventExactlyAtDeadline(t *testing.T) {
	k := NewKernel(1)
	deadline := k.Now().Add(5 * Millisecond)
	fired := false
	k.At(deadline, func() { fired = true })
	after := false
	k.At(deadline.Add(1), func() { after = true })
	k.RunUntil(deadline)
	if !fired {
		t.Fatal("event at the deadline did not fire")
	}
	if after {
		t.Fatal("event past the deadline fired")
	}
	if k.Now() != deadline {
		t.Fatalf("clock at %v, want %v", k.Now(), deadline)
	}
}

// TestStopMidDispatchSameInstant: Stop called from inside an event
// leaves the rest of that instant's events queued, and the next Run
// dispatches them in the original order.
func TestStopMidDispatchSameInstant(t *testing.T) {
	k := NewKernel(1)
	var got []int
	at := k.Now().Add(Millisecond)
	k.At(at, func() { got = append(got, 1); k.Stop() })
	k.At(at, func() { got = append(got, 2) })
	k.At(at, func() { got = append(got, 3) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("first run dispatched %v, want [1]", got)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("resume dispatched %v, want [1 2 3]", got)
	}
}

// TestStaleTimerHandleAfterReuse: a Timer stopped and swept keeps
// reporting dead even after its pooled shell is reissued to a new
// event — the stale handle must not be able to stop the new occupant.
func TestStaleTimerHandleAfterReuse(t *testing.T) {
	k := NewKernel(1)
	t1 := k.After(Millisecond, func() {})
	t1.Stop()
	if err := k.Run(); err != nil { // sweeps and recycles the shell
		t.Fatal(err)
	}
	fired := false
	t2 := k.After(Millisecond, func() { fired = true })
	if t1.Pending() {
		t.Fatal("stale handle reports pending after shell reuse")
	}
	if t1.Stop() {
		t.Fatal("stale handle stopped the shell's new occupant")
	}
	if !t2.Pending() {
		t.Fatal("new timer lost its pending state")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("new occupant did not fire")
	}
}

// TestRescheduleWhileCanceled: stopping a timer and immediately
// scheduling a replacement (the arm-timer idiom) must leave exactly
// the replacement live, across enough iterations to force shell reuse
// and compaction underneath.
func TestRescheduleWhileCanceled(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	var tm Timer
	for i := 0; i < 10_000; i++ {
		tm.Stop()
		tm = k.After(Duration(i+1)*Microsecond, func() { fired++ })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("%d timers fired, want exactly the last one", fired)
	}
}

// TestTimerStopInsideOwnCallback: Stop from within the firing callback
// reports false (it already fired) and must not corrupt the pool.
func TestTimerStopInsideOwnCallback(t *testing.T) {
	k := NewKernel(1)
	var tm Timer
	stopped := true
	tm = k.After(Millisecond, func() { stopped = tm.Stop() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if stopped {
		t.Fatal("Stop inside the firing callback reported pending")
	}
}

// TestSchedulingZeroAllocSteadyState is the allocation guard for the
// core scheduling path: once the pools are warm, At/After plus
// dispatch allocate nothing.
func TestSchedulingZeroAllocSteadyState(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	for i := 0; i < 128; i++ {
		k.After(Microsecond, fn)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.After(Microsecond, fn)
		k.After(2*Microsecond, fn)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+dispatch allocates %v/op, want 0", allocs)
	}
}

// TestStopZeroAlloc: cancel path allocates nothing either.
func TestStopZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	for i := 0; i < 128; i++ {
		k.After(Microsecond, fn).Stop()
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.After(Microsecond, fn).Stop()
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocates %v/op, want 0", allocs)
	}
}

// TestProcSleepResumeZeroAlloc: once warm, a proc's Sleep→resume cycle
// allocates nothing — a resume carries its proc in the event shell,
// not in a closure.
func TestProcSleepResumeZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
		}
	})
	p.SetDaemon(true)
	k.RunFor(100 * Microsecond)
	allocs := testing.AllocsPerRun(100, func() {
		k.RunFor(100 * Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("100 sleep/resume cycles allocate %v/op, want 0", allocs)
	}
	k.Shutdown()
}

// TestYieldZeroAlloc: two procs yielding to each other pass the token
// proc to proc without allocating.
func TestYieldZeroAlloc(t *testing.T) {
	k := NewKernel(1)
	for _, name := range []string{"a", "b"} {
		p := k.Spawn(name, func(p *Proc) {
			for {
				p.Yield()
				p.Yield()
				p.Sleep(Microsecond)
			}
		})
		p.SetDaemon(true)
	}
	k.RunFor(100 * Microsecond)
	allocs := testing.AllocsPerRun(100, func() {
		k.RunFor(100 * Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("yield cycles allocate %v/op, want 0", allocs)
	}
	k.Shutdown()
}
