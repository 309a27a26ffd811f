// Package arq is the reliable-delivery core the simulator's three
// retransmitting protocols share: the channel kernel protocol
// (internal/channels), virtualized channels (internal/vchan) and the
// S/NET reliable protocol (internal/flowctl).
//
// The paper's channel protocol is stop-and-wait with retransmission
// from the still-intact user buffer; §4.1 suggests a sliding window,
// and the early S/NET protocol recovered from damage with NAKs and
// timeouts (§4). Every engine is that one idea in a different wire
// format, so the state machines live here once:
//
//   - Window is the sender's unacknowledged records in seq order,
//     released per record or cumulatively.
//   - Cursor classifies each arrival at the receiver as a duplicate,
//     in order, or ahead of the stream.
//   - Acker coalesces the receiver's cumulative acks by count and
//     delay.
//   - Floor is a raise-only per-key fence (incarnation or term).
//   - Retrans is the sender's retransmit timer, driven by a Policy.
//
// An engine keeps only its wire format and its retransmit mechanics.
// None of these types schedules anything on its own: every timer is
// armed and stopped where the engine calls it, so the order of kernel
// events — and with it every virtual-time result — is the engine's.
package arq

import "hpcvorx/internal/sim"

// Record is a sender-side record a Window can order.
type Record interface{ Seq() int }

// Window holds a sender's unacknowledged records, oldest first, and
// the cumulative ack mark: every seq below Base has been acked. The
// zero value is an empty window with nothing acked.
type Window[T Record] struct {
	recs []T
	base int
}

// Push appends a freshly sequenced record.
func (w *Window[T]) Push(r T) { w.recs = append(w.recs, r) }

// Len is the number of records in flight.
func (w *Window[T]) Len() int { return len(w.recs) }

// Records is the in-flight records, oldest first. The slice is the
// window's own; callers must not keep it across a release.
func (w *Window[T]) Records() []T { return w.recs }

// Base is one past the highest cumulative ack applied (0 before any).
func (w *Window[T]) Base() int { return w.base }

// Find returns the record with the given seq.
func (w *Window[T]) Find(seq int) (rec T, ok bool) {
	for _, r := range w.recs {
		if r.Seq() == seq {
			return r, true
		}
	}
	return rec, false
}

// Release removes the record with the given seq: a per-record ack.
func (w *Window[T]) Release(seq int) (rec T, ok bool) {
	for i, rec := range w.recs {
		if rec.Seq() == seq {
			w.remove(i, 1)
			return rec, true
		}
	}
	return rec, false
}

// ReleaseThrough applies a cumulative ack: every record with seq <=
// upTo leaves the window, oldest first, through fn (which may be nil).
// An ack at or below the mark already applied is stale and changes
// nothing; ReleaseThrough reports whether this one advanced the mark.
func (w *Window[T]) ReleaseThrough(upTo int, fn func(T)) bool {
	if upTo < w.base {
		return false
	}
	n := 0
	for ; n < len(w.recs) && w.recs[n].Seq() <= upTo; n++ {
		if fn != nil {
			fn(w.recs[n])
		}
	}
	w.remove(0, n)
	w.base = upTo + 1
	return true
}

// ReleaseBelow removes every record with seq < stable, passing each to
// fn; the rest keep their order.
func (w *Window[T]) ReleaseBelow(stable int, fn func(T)) {
	keep := w.recs[:0]
	for _, r := range w.recs {
		if r.Seq() >= stable {
			keep = append(keep, r)
		} else {
			fn(r)
		}
	}
	clear(w.recs[len(keep):])
	w.recs = keep
}

// Requeue moves every record of from to the front of w — retained
// records going back in flight ahead of the pending ones — and leaves
// from empty.
func (w *Window[T]) Requeue(from *Window[T]) {
	if len(from.recs) == 0 {
		return
	}
	w.recs = append(from.recs, w.recs...)
	from.recs = nil
}

// Reset drops every record; the ack mark stands.
func (w *Window[T]) Reset() {
	clear(w.recs)
	w.recs = w.recs[:0]
}

// remove drops the n records from index i on, keeping the order and
// the backing array.
func (w *Window[T]) remove(i, n int) {
	copy(w.recs[i:], w.recs[i+n:])
	clear(w.recs[len(w.recs)-n:])
	w.recs = w.recs[:len(w.recs)-n]
}

// Arrival is the receiver's verdict on one arriving seq.
type Arrival uint8

const (
	// Dup is a seq already delivered: suppress it and re-ack.
	Dup Arrival = iota
	// InOrder is the next seq the stream expects.
	InOrder
	// Ahead is past a hole: a predecessor was lost or refused.
	Ahead
)

// Cursor is the in-order receiver: the next seq it will accept.
type Cursor struct{ next int }

// At returns a cursor that next accepts seq.
func At(seq int) Cursor { return Cursor{next: seq} }

// Classify judges an arriving seq against the cursor.
func (c *Cursor) Classify(seq int) Arrival {
	switch {
	case seq < c.next:
		return Dup
	case seq > c.next:
		return Ahead
	}
	return InOrder
}

// Advance accepts the in-order seq.
func (c *Cursor) Advance() { c.next++ }

// Next is the next seq the cursor accepts; Next()-1 is the cumulative
// ack position.
func (c *Cursor) Next() int { return c.next }

// AckDelay is how long a receiver may sit on a cumulative ack waiting
// for more arrivals to cover.
const AckDelay = 100 * sim.Microsecond

// AckBatch is the default count of owed arrivals that flushes the ack
// at once: half the sender's window, at least 1.
func AckBatch(window int) int {
	if window/2 < 1 {
		return 1
	}
	return window / 2
}

// Acker coalesces a receiver's cumulative acks: each in-order arrival
// owes one, and the owed acks go out as one once a batch is owed or a
// delay after the first, whichever comes first. Init before use.
type Acker struct {
	k     *sim.Kernel
	delay sim.Duration
	batch int
	fire  func()

	owed  int
	armed bool
	timer sim.Timer
}

// Init binds the acker to kernel k with the given delay and batch;
// flush runs when the delay expires (an armed timer always has an ack
// owed).
func (a *Acker) Init(k *sim.Kernel, delay sim.Duration, batch int, flush func()) {
	a.k, a.delay, a.batch = k, delay, batch
	a.fire = func() {
		a.armed = false
		flush()
	}
}

// Owe counts one in-order arrival and reports whether the ack is due
// now; otherwise the delay timer is armed (if it is not already).
func (a *Acker) Owe() (due bool) {
	a.owed++
	if a.owed >= a.batch {
		return true
	}
	if !a.armed {
		a.armed = true
		a.timer = a.k.After(a.delay, a.fire)
	}
	return false
}

// Pending reports whether an ack is owed or its timer armed.
func (a *Acker) Pending() bool { return a.armed || a.owed > 0 }

// Take is the flush step: the ack is going out now (standalone or
// riding reverse data), so the timer stops and the owed count, which
// Take returns, starts over.
func (a *Acker) Take() int {
	a.Stop()
	n := a.owed
	a.owed = 0
	return n
}

// Stop disarms the delay timer and keeps the owed count.
func (a *Acker) Stop() {
	if a.armed {
		a.timer.Stop()
		a.armed = false
	}
}

// Floor is a raise-only fence per key: frames stamped below a key's
// floor are refused. It backs the incarnation fences of netif and
// flowctl and the placement-term fences of vchan. The zero value has
// no floors.
type Floor[K comparable] struct{ m map[K]uint32 }

// Raise lifts k's floor to min; a lower min is a no-op, since fences
// only tighten.
func (f *Floor[K]) Raise(k K, min uint32) {
	if f.m[k] >= min {
		return
	}
	if f.m == nil {
		f.m = make(map[K]uint32)
	}
	f.m[k] = min
}

// Of returns k's floor (0 when unfenced).
func (f *Floor[K]) Of(k K) uint32 { return f.m[k] }

// Admit reports whether a frame from k stamped v clears k's floor,
// and the floor it was checked against.
func (f *Floor[K]) Admit(k K, v uint32) (floor uint32, ok bool) {
	if len(f.m) == 0 {
		return 0, true
	}
	floor = f.m[k]
	return floor, v >= floor
}

// Reset drops every floor (the state died with a crash).
func (f *Floor[K]) Reset() { clear(f.m) }

// Policy is a sender's retransmit rule: how long it waits for an ack,
// how the wait grows while timeouts go unanswered, and how much of the
// window one timeout resends.
type Policy struct {
	// RTO is the wait before the first retransmission.
	RTO sim.Duration
	// MaxShift caps the exponential backoff: each timeout without ack
	// progress doubles the wait, up to RTO<<MaxShift. 0 keeps the wait
	// fixed.
	MaxShift uint8
	// Whole resends every record in flight (go-back-N) instead of only
	// the oldest.
	Whole bool
}

// GoBackN resends the whole window every rto, with no backoff. The
// burst's rate is bounded by window/rto, so it suits one small window
// per station pair — the S/NET protocol's shape. Do not put it on a
// multiplexed path: when many logical streams share one lane, a fixed
// timeout below the loaded round trip turns whole-window resends into
// congestion collapse, the duplicates crowding out fresh frames and
// the very acks that would cancel them.
func GoBackN(rto sim.Duration) Policy { return Policy{RTO: rto, Whole: true} }

// HeadBackoff resends only the oldest unacked record, doubling the
// wait on every timeout up to 32×rto and starting over on ack
// progress. A fabric that never silently drops makes a congested
// window merely late, so one head record per timeout plus the
// receiver's cumulative ack recovers real loss (crash, partition,
// gray) one hole at a time without amplifying the overload — the
// discipline a multiplexed path needs.
func HeadBackoff(rto sim.Duration) Policy { return Policy{RTO: rto, MaxShift: 5} }

// Span is how many of n in-flight records one timeout resends.
func (p Policy) Span(n int) int {
	if p.Whole {
		return n
	}
	return min(n, 1)
}

// Retrans is a sender's retransmit timer under a Policy. Init before
// use.
type Retrans struct {
	Policy
	k     *sim.Kernel
	fire  func()
	timer sim.Timer
	shift uint8
}

// Init binds the timer to kernel k; fire runs on expiry.
func (r *Retrans) Init(k *sim.Kernel, p Policy, fire func()) {
	r.Policy, r.k, r.fire = p, k, fire
}

// Arm (re)starts the timer at the current backoff.
func (r *Retrans) Arm() {
	r.timer.Stop()
	r.timer = r.k.After(r.RTO<<r.shift, r.fire)
}

// Stop disarms the timer.
func (r *Retrans) Stop() { r.timer.Stop() }

// Armed reports whether the timer is running.
func (r *Retrans) Armed() bool { return r.timer.Pending() }

// Shift is the current backoff exponent.
func (r *Retrans) Shift() uint8 { return r.shift }

// Backoff records a timeout without progress: the next wait doubles,
// up to the policy's cap.
func (r *Retrans) Backoff() {
	if r.shift < r.MaxShift {
		r.shift++
	}
}

// Progress records ack progress: the path is alive, so the wait drops
// back to RTO.
func (r *Retrans) Progress() { r.shift = 0 }
