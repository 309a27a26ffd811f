package sim

// event is a scheduled callback. Events at equal times fire in
// scheduling order (seq), which makes the simulation deterministic.
//
// Event shells are pooled: when an event fires, is skipped as
// canceled, or is swept by compaction, the shell goes back to the
// kernel's free list and its gen is bumped. A Timer remembers the gen
// it was issued with, so a stale handle held across a recycle can
// neither stop nor observe the shell's next occupant. Steady-state
// scheduling therefore allocates nothing: the working set of shells is
// bounded by the peak number of simultaneously pending events.
type event struct {
	k        *Kernel
	at       Time
	seq      uint64
	gen      uint64
	fn       func()
	proc     *Proc // resume target; fn is nil when set
	index    int32 // heap position, or nowIdx / freeIdx
	canceled bool
}

const (
	nowIdx  int32 = -2 // resident in the same-instant FIFO
	freeIdx int32 = -1 // fired, recycled, or never scheduled
)

// Timer is a handle to a scheduled event that can be canceled before it
// fires. The zero Timer is invalid.
type Timer struct {
	ev  *event
	gen uint64
}

// Stop cancels the timer. It reports whether the timer was still
// pending (true) or had already fired or been stopped (false).
// Stopping an already-stopped timer is a no-op. The event shell stays
// queued but inert until dispatch or compaction sweeps it; its closure
// is released immediately.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.canceled || ev.index == freeIdx {
		return false
	}
	ev.canceled = true
	ev.fn = nil
	k := ev.k
	k.nCanceled++
	if k.nCanceled >= compactMin && k.nCanceled*2 > k.pendingLen() {
		k.compact()
	}
	return true
}

// Pending reports whether the timer has neither fired nor been stopped.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.canceled && t.ev.index != freeIdx
}

// eventLess orders events by (at, seq). seq is unique, so this is a
// total order: any heap arrangement pops in exactly the same sequence.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The pending-event store is a 4-ary min-heap indexed through
// event.index, plus a FIFO of events scheduled for the current instant
// (kernel.nowQ). A 4-ary heap halves the tree depth of the binary
// container/heap it replaces and keeps the four children of a node on
// one cache line of pointers; indexing through the shells lets
// compaction rebuild the heap without searching.

// heapPush inserts ev into the pending heap.
func (k *Kernel) heapPush(ev *event) {
	k.events = append(k.events, ev)
	k.siftUp(int32(len(k.events)-1), ev)
}

// heapPop removes and returns the earliest heap event.
func (k *Kernel) heapPop() *event {
	h := k.events
	ev := h[0]
	last := len(h) - 1
	tail := h[last]
	h[last] = nil
	k.events = h[:last]
	if last > 0 {
		k.siftDown(0, tail)
	}
	ev.index = freeIdx
	return ev
}

// siftUp places ev at position i, bubbling it toward the root.
func (k *Kernel) siftUp(i int32, ev *event) {
	h := k.events
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// siftDown places ev at position i, sinking it below smaller children.
func (k *Kernel) siftDown(i int32, ev *event) {
	h := k.events
	n := int32(len(h))
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].index = i
		i = m
	}
	h[i] = ev
	ev.index = i
}

const (
	// compactMin is the floor below which canceled events are not worth
	// sweeping; past it, a sweep triggers whenever canceled shells
	// outnumber live ones. The trigger depends only on event counts —
	// never on host time or memory — so a given schedule compacts at
	// identical points on every run.
	compactMin = 64
	// maxFreeEvents bounds the free list so a one-off burst does not
	// pin its peak working set forever.
	maxFreeEvents = 1 << 14
)

// pendingLen is the number of resident shells, canceled included.
func (k *Kernel) pendingLen() int {
	return len(k.events) + len(k.nowQ) - k.nowHead
}

// alloc takes an event shell from the free list, or mints one.
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return ev
	}
	return &event{k: k, index: freeIdx}
}

// recycle returns a shell to the free list. Bumping gen invalidates
// every outstanding Timer for the shell's previous life.
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.proc = nil
	ev.canceled = false
	ev.index = freeIdx
	if len(k.free) < maxFreeEvents {
		k.free = append(k.free, ev)
	}
}

// compact sweeps canceled shells out of the heap and the same-instant
// FIFO, recycling them, then rebuilds the heap in place. (at, seq) is
// a total order, so the rebuilt heap pops in exactly the order the old
// one would have; the FIFO keeps its relative order.
func (k *Kernel) compact() {
	swept := k.nCanceled
	k.compactions++
	if cp, ok := k.probe.(CompactionProbe); ok {
		cp.QueueCompaction(k.now, swept)
	}
	h := k.events
	w := 0
	for _, ev := range h {
		if ev.canceled {
			k.recycle(ev)
			continue
		}
		h[w] = ev
		ev.index = int32(w)
		w++
	}
	for i := w; i < len(h); i++ {
		h[i] = nil
	}
	k.events = h[:w]
	for i := (int32(w) - 2) >> 2; i >= 0; i-- {
		k.siftDown(i, k.events[i])
	}

	q := k.nowQ[k.nowHead:]
	w = 0
	for _, ev := range q {
		if ev.canceled {
			k.recycle(ev)
			continue
		}
		q[w] = ev
		w++
	}
	for i := w; i < len(q); i++ {
		q[i] = nil
	}
	k.nowQ = q[:w]
	k.nowHead = 0
	k.nCanceled = 0
}
