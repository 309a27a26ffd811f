package arq

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hpcvorx/internal/sim"
)

type rec struct{ seq int }

func (r *rec) Seq() int { return r.seq }

func seqs(w *Window[*rec]) []int {
	out := []int{}
	for _, r := range w.Records() {
		out = append(out, r.seq)
	}
	return out
}

// lossyRun drives one sender and one receiver across a network that
// reorders, duplicates and drops data frames and acks, as chosen by
// rng, and checks every step against a trivial reference model: the
// sender's unacked records are exactly [highest ack + 1, next), the
// receiver delivers 0, 1, 2, … each exactly once, and no cumulative
// ack passes what was delivered. A final lossless phase retransmits
// until every record is acked, so each run must deliver all msgs.
func lossyRun(t *testing.T, seed int64, msgs, window int, whole bool) bool {
	rng := rand.New(rand.NewSource(seed))
	k := sim.NewKernel(seed)
	defer k.Shutdown()

	var (
		win       Window[*rec]
		next      int
		cur       Cursor
		ack       Acker
		delivered []int
		data      []int // data frames in flight (seqs)
		acks      []int // cumulative acks in flight (upTo)
		highest   = -1  // reference model: highest cumulative ack applied
		ok        = true
	)
	fail := func(format string, args ...any) {
		t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
		ok = false
	}
	sendAck := func() {
		ack.Take()
		upTo := cur.Next() - 1
		if upTo >= len(delivered) {
			fail("ack through %d passes %d deliveries", upTo, len(delivered))
		}
		acks = append(acks, upTo)
	}
	ack.Init(k, AckDelay, AckBatch(window), sendAck)
	policy := HeadBackoff(sim.Millisecond)
	if whole {
		policy = GoBackN(sim.Millisecond)
	}
	arrive := func(seq int) {
		switch cur.Classify(seq) {
		case InOrder:
			delivered = append(delivered, seq)
			cur.Advance()
			if ack.Owe() {
				sendAck()
			}
		default:
			sendAck()
		}
	}
	applyAck := func(upTo int) {
		advanced := win.ReleaseThrough(upTo, func(r *rec) {
			if r.seq > upTo || r.seq <= highest {
				fail("released seq %d on ack %d (acked through %d)", r.seq, upTo, highest)
			}
		})
		if advanced != (upTo > highest) {
			fail("ack %d after %d: advanced=%v", upTo, highest, advanced)
		}
		highest = max(highest, upTo)
		if win.Base() != highest+1 {
			fail("base %d, highest ack %d", win.Base(), highest)
		}
	}
	check := func() {
		want := []int{}
		for s := highest + 1; s < next; s++ {
			want = append(want, s)
		}
		if got := seqs(&win); !slices.Equal(got, want) {
			fail("window %v, reference %v", got, want)
		}
	}
	pick := func(q *[]int) int {
		i := rng.Intn(len(*q))
		v := (*q)[i]
		*q = slices.Delete(*q, i, i+1)
		return v
	}

	for step := 0; step < 40*msgs && ok; step++ {
		switch op := rng.Intn(10); {
		case op < 3 && next < msgs && win.Len() < window:
			win.Push(&rec{seq: next})
			data = append(data, next)
			next++
		case op == 3 && win.Len() > 0:
			for _, r := range win.Records()[:policy.Span(win.Len())] {
				data = append(data, r.seq)
			}
		case op == 4 && len(data) > 0:
			data = append(data, data[rng.Intn(len(data))]) // duplicate
		case op == 5 && len(data) > 0:
			pick(&data) // drop
		case op == 6 && len(acks) > 0:
			pick(&acks) // drop
		case op == 7 && ack.Pending():
			sendAck() // the delay timer expired
		case op == 8 && len(acks) > 0:
			applyAck(pick(&acks))
		case len(data) > 0:
			arrive(pick(&data))
		}
		check()
	}
	// Lossless drain: everything in flight arrives, then the sender
	// retransmits until the window empties.
	for rounds := 0; ok && (win.Len() > 0 || next < msgs); rounds++ {
		if rounds > 4*msgs {
			fail("no progress: window %v, delivered %d", seqs(&win), len(delivered))
			break
		}
		for next < msgs && win.Len() < window {
			win.Push(&rec{seq: next})
			data = append(data, next)
			next++
		}
		for _, r := range win.Records() {
			data = append(data, r.seq)
		}
		for len(data) > 0 {
			arrive(pick(&data))
		}
		if ack.Pending() {
			sendAck()
		}
		for len(acks) > 0 {
			applyAck(pick(&acks))
		}
		check()
	}
	for i, s := range delivered {
		if s != i {
			fail("delivery %d is seq %d", i, s)
			break
		}
	}
	if ok && len(delivered) != msgs {
		fail("delivered %d of %d", len(delivered), msgs)
	}
	return ok
}

// TestDeliveryExactlyOnceInOrderProperty checks the sender window,
// the in-order cursor and the ack coalescer together against the
// reference model, under random reordering, duplication and loss, for
// both retransmit policies.
func TestDeliveryExactlyOnceInOrderProperty(t *testing.T) {
	prop := func(seed int64, msgs, window uint8, whole bool) bool {
		return lossyRun(t, seed, 1+int(msgs%40), 1+int(window%8), whole)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPerRecordReleaseProperty checks the per-record operations the
// channel protocol uses — exact release, retain, release below a
// stable mark, requeue — against a sorted-set reference: a release
// never drops a record it was not asked to, and order survives.
func TestPerRecordReleaseProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		var pending, retained Window[*rec]
		var refPending, refRetained []int
		next := 0
		for _, op := range ops {
			arg := int(op >> 3)
			switch op % 5 {
			case 0, 1:
				pending.Push(&rec{seq: next})
				refPending = append(refPending, next)
				next++
			case 2: // ack one write, retaining it
				seq := arg % (next + 1)
				r, ok := pending.Release(seq)
				i := slices.Index(refPending, seq)
				if ok != (i >= 0) || ok && r.seq != seq {
					return false
				}
				if ok {
					refPending = slices.Delete(refPending, i, i+1)
					retained.Push(r)
					refRetained = append(refRetained, seq)
				}
			case 3: // the stable mark advances
				stable := arg % (next + 1)
				var released, refReleased []int
				retained.ReleaseBelow(stable, func(r *rec) { released = append(released, r.seq) })
				refRetained = slices.DeleteFunc(refRetained, func(s int) bool {
					if s < stable {
						refReleased = append(refReleased, s)
					}
					return s < stable
				})
				if !slices.Equal(released, refReleased) {
					return false
				}
			case 4: // rebind: retained writes go back in flight first
				pending.Requeue(&retained)
				refPending = append(refRetained, refPending...)
				refRetained = nil
			}
			if !slices.Equal(seqs(&pending), refPending) || !slices.Equal(seqs(&retained), refRetained) {
				return false
			}
			for _, s := range refPending {
				if r, ok := pending.Find(s); !ok || r.seq != s {
					return false
				}
			}
			if r, ok := pending.Find(next); ok || r != nil {
				return false // never written: absent, and the zero record
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFloorNeverLowersProperty raises floors in random order and
// checks each key's floor is the maximum ever raised to, that it
// never drops, and that Admit agrees with it.
func TestFloorNeverLowersProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		var f Floor[uint8]
		ref := map[uint8]uint32{}
		for _, op := range ops {
			key, v := uint8(op%7), uint32(op>>3)
			before := f.Of(key)
			f.Raise(key, v)
			ref[key] = max(ref[key], v)
			if f.Of(key) < before || f.Of(key) != ref[key] {
				return false
			}
			for k, floor := range ref {
				got, ok := f.Admit(k, v)
				if got != floor || ok != (v >= floor) {
					return false
				}
			}
		}
		f.Reset()
		for k := range ref {
			if _, ok := f.Admit(k, 0); !ok || f.Of(k) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClassify(t *testing.T) {
	c := At(5)
	for seq, want := range map[int]Arrival{3: Dup, 4: Dup, 5: InOrder, 6: Ahead} {
		if got := c.Classify(seq); got != want {
			t.Errorf("Classify(%d) at 5 = %d, want %d", seq, got, want)
		}
	}
	c.Advance()
	if c.Next() != 6 || c.Classify(5) != Dup {
		t.Errorf("after Advance: next %d", c.Next())
	}
}

func TestAckBatchDefault(t *testing.T) {
	for window, want := range map[int]int{0: 1, 1: 1, 2: 1, 3: 1, 4: 2, 8: 4} {
		if got := AckBatch(window); got != want {
			t.Errorf("AckBatch(%d) = %d, want %d", window, got, want)
		}
	}
}

// TestAckerDelayAndBatch: a lone arrival is acked after AckDelay; a
// batch's worth goes out at once and disarms the timer.
func TestAckerDelayAndBatch(t *testing.T) {
	k := sim.NewKernel(1)
	var a Acker
	var flushed []sim.Time
	a.Init(k, AckDelay, 3, func() {
		a.Take()
		flushed = append(flushed, k.Now())
	})
	if a.Owe() {
		t.Fatal("one of three owed is not due")
	}
	k.Run()
	if len(flushed) != 1 || flushed[0] != sim.Time(AckDelay) || a.Pending() {
		t.Fatalf("delay flush at %v, pending %v", flushed, a.Pending())
	}
	if a.Owe() || a.Owe() || !a.Owe() {
		t.Fatal("the third arrival must make the ack due")
	}
	if n := a.Take(); n != 3 {
		t.Fatalf("Take covered %d, want 3", n)
	}
	k.Run()
	if len(flushed) != 1 {
		t.Fatalf("a taken ack's timer still fired: %v", flushed)
	}
}

// TestRetransPolicies: head backoff doubles the wait up to 32×RTO and
// resets on progress; go-back-N keeps a fixed wait and resends the
// whole window.
func TestRetransPolicies(t *testing.T) {
	k := sim.NewKernel(1)
	var fired []sim.Time
	var r Retrans
	r.Init(k, HeadBackoff(sim.Millisecond), func() {
		fired = append(fired, k.Now())
		r.Backoff()
		if len(fired) < 8 {
			r.Arm()
		}
	})
	r.Arm()
	k.Run()
	var gaps []sim.Duration
	prev := sim.Time(0)
	for _, at := range fired {
		gaps = append(gaps, at.Sub(prev)/sim.Millisecond)
		prev = at
	}
	if want := []sim.Duration{1, 2, 4, 8, 16, 32, 32, 32}; !slices.Equal(gaps, want) {
		t.Fatalf("backoff gaps %v ms, want %v", gaps, want)
	}
	r.Progress()
	if r.Shift() != 0 || r.Span(5) != 1 || r.Span(0) != 0 {
		t.Fatalf("shift %d span %d", r.Shift(), r.Span(5))
	}
	g := GoBackN(sim.Millisecond)
	if g.MaxShift != 0 || g.Span(5) != 5 {
		t.Fatalf("go-back-N policy %+v", g)
	}
	r.Arm()
	if !r.Armed() {
		t.Fatal("armed timer not pending")
	}
	r.Stop()
	if r.Armed() {
		t.Fatal("stopped timer still pending")
	}
}

// TestWarmOperationsDoNotAllocate guards the per-message paths: once
// the window's backing array and the kernel's event shells are warm,
// push, release, classify and owe allocate nothing.
func TestWarmOperationsDoNotAllocate(t *testing.T) {
	k := sim.NewKernel(1)
	recs := make([]*rec, 64)
	for i := range recs {
		recs[i] = &rec{seq: i}
	}
	var w Window[*rec]
	var c Cursor
	var a Acker
	a.Init(k, AckDelay, 2, func() {})
	var f Floor[int]
	f.Raise(1, 3)
	seq := 0
	cycle := func() {
		r := recs[seq%len(recs)]
		r.seq = seq
		w.Push(r)
		r2 := recs[(seq+1)%len(recs)]
		r2.seq = seq + 1
		w.Push(r2)
		w.Release(seq + 1)
		w.ReleaseThrough(seq, nil)
		if c.Classify(seq) == InOrder {
			c.Advance()
		}
		c.Classify(seq + 1)
		if !a.Owe() {
			a.Owe()
		}
		a.Take()
		f.Admit(1, 2)
		seq += 2
		c = At(seq)
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("warm push/release/classify/owe: %v allocs per cycle", n)
	}
}
