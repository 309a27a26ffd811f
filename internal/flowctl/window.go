package flowctl

import (
	"fmt"

	"hpcvorx/internal/arq"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/snet"
)

// WindowConfig switches a Reliable instance from stop-and-wait to the
// pipelined go-back-N protocol: up to Window data messages per
// direction stay in flight, receivers acknowledge cumulatively (one
// ack covers every in-order seq up to it), acks are delayed so one can
// cover a run of arrivals, and a pending ack is piggybacked on reverse
// data traffic when any flows. The zero value (Window <= 1) keeps the
// classic protocol bit-for-bit.
type WindowConfig struct {
	// Window is the per-direction in-flight limit. <= 1 is classic
	// stop-and-wait.
	Window int
	// AckDelay is how long a receiver may sit on a cumulative ack
	// waiting for more arrivals (or reverse traffic to piggyback on).
	// SetWindowConfig defaults it to arq.AckDelay when unset.
	AckDelay sim.Duration
	// AckBatch flushes the delayed ack once this many arrivals are
	// owed. SetWindowConfig defaults it to arq.AckBatch(Window).
	AckBatch int
}

// SetWindowConfig enables the windowed protocol. Call before traffic
// flows; per-pair state is created lazily as streams start.
func (r *Reliable) SetWindowConfig(wc WindowConfig) {
	if wc.Window <= 1 {
		return
	}
	if wc.AckDelay <= 0 {
		wc.AckDelay = arq.AckDelay
	}
	if wc.AckBatch <= 0 {
		wc.AckBatch = arq.AckBatch(wc.Window)
	}
	r.wc = wc
	r.winSend = make(map[[2]int]*gbnSend)
	r.winRecv = make(map[[2]int]*gbnRecv)
}

// Windowed reports whether the pipelined protocol is active.
func (r *Reliable) Windowed() bool { return r.wc.Window > 1 }

// gbnSend is one direction's sender state: seqs [win.Base(), next)
// are in flight. One writer proc per direction at a time (the same
// discipline classic Send imposes per station).
type gbnSend struct {
	next      int
	win       arq.Window[gbnItem]
	rt        arq.Retrans // go-back-N at AckTimeout
	fullWake  func()      // writer parked on a full window
	idleWake  func()      // Drain waiter parked until all acked
	resending bool        // a go-back-N round is on the wire
}

type gbnItem struct {
	seq, size int
	user      any
}

func (it gbnItem) Seq() int { return it.seq }

// gbnRecv is one direction's receiver state.
type gbnRecv struct {
	cur arq.Cursor
	ack arq.Acker
}

// Wire bodies. gbnData carries the reverse direction's cumulative ack
// when one was owed at transmit time (-1 otherwise); gbnAck is the
// standalone cumulative acknowledgement: every seq <= upTo arrived in
// order.
type gbnData struct {
	seq     int
	user    any
	ackUpTo int
}
type gbnAck struct{ upTo int }

func (r *Reliable) sendState(src *snet.Station, dst int) *gbnSend {
	key := [2]int{src.ID(), dst}
	gs := r.winSend[key]
	if gs == nil {
		gs = &gbnSend{}
		gs.rt.Init(r.k, arq.GoBackN(r.AckTimeout), func() {
			if gs.win.Len() == 0 || gs.resending {
				return
			}
			r.Timeouts++
			r.goBackN(src, dst, gs)
		})
		r.winSend[key] = gs
	}
	return gs
}

func (r *Reliable) recvState(st *snet.Station, peer int) *gbnRecv {
	key := [2]int{st.ID(), peer}
	gr := r.winRecv[key]
	if gr == nil {
		gr = &gbnRecv{}
		gr.ack.Init(r.k, r.wc.AckDelay, r.wc.AckBatch, func() { r.flushAck(st, peer, gr) })
		r.winRecv[key] = gr
	}
	return gr
}

// sendWindowed is Send under the go-back-N protocol: park while the
// window is full, then transmit and return without waiting for the
// ack — the window, not the RTT, is the brake.
func (r *Reliable) sendWindowed(p *sim.Proc, src *snet.Station, dst, size int, payload any) int {
	gs := r.sendState(src, dst)
	for gs.win.Len() >= r.wc.Window {
		gs.fullWake = p.Park(fmt.Sprintf("gbn-window %d->%d", src.ID(), dst))
		p.Block()
	}
	seq := gs.next
	gs.next++
	gs.win.Push(gbnItem{seq: seq, size: size, user: payload})
	transfers := 1
	d := gbnData{seq: seq, user: payload, ackUpTo: r.takePiggyback(src.ID(), dst)}
	for src.Send(p, dst, size, d) != snet.Delivered {
		p.Sleep(100 * sim.Microsecond)
		transfers++
	}
	if !gs.rt.Armed() && !gs.resending && gs.win.Len() > 0 {
		gs.rt.Arm()
	}
	return transfers
}

// Drain parks p until every windowed send from src to dst has been
// acknowledged. A no-op for streams that never started (or classic
// mode).
func (r *Reliable) Drain(p *sim.Proc, src *snet.Station, dst int) {
	gs := r.winSend[[2]int{src.ID(), dst}]
	if gs == nil {
		return
	}
	for gs.win.Len() > 0 {
		gs.idleWake = p.Park(fmt.Sprintf("gbn-drain %d->%d", src.ID(), dst))
		p.Block()
	}
}

// goBackN retransmits everything in flight starting from the lowest
// unacked seq — the arq.GoBackN policy's whole-window resend, which
// makes a lost cumulative ack (or a dropped run of data) recoverable
// with no per-seq state.
func (r *Reliable) goBackN(src *snet.Station, dst int, gs *gbnSend) {
	gs.resending = true
	top := gs.win.Base() + gs.rt.Span(gs.win.Len())
	r.k.Spawn("gbn-resend", func(p *sim.Proc) {
		cursor := gs.win.Base()
		for cursor < top {
			if cursor < gs.win.Base() {
				cursor = gs.win.Base() // acks advanced past us mid-round
				continue
			}
			off := cursor - gs.win.Base()
			if off >= gs.win.Len() {
				break
			}
			it := gs.win.Records()[off]
			r.Retransmissions++
			d := gbnData{seq: cursor, user: it.user, ackUpTo: r.takePiggyback(src.ID(), dst)}
			for src.Send(p, dst, it.size, d) != snet.Delivered {
				p.Sleep(100 * sim.Microsecond)
			}
			cursor++
		}
		gs.resending = false
		if gs.win.Len() > 0 {
			gs.rt.Arm()
		}
	})
}

// applyAck advances sender state (station -> peer) through a
// cumulative ack: drop every in-flight item with seq <= upTo, wake a
// window-blocked writer and, when the stream runs dry, the Drain
// waiter.
func (r *Reliable) applyAck(station, peer, upTo int) {
	gs := r.winSend[[2]int{station, peer}]
	if gs == nil || !gs.win.ReleaseThrough(upTo, nil) {
		return
	}
	gs.rt.Stop()
	if gs.win.Len() > 0 && !gs.resending {
		gs.rt.Arm()
	}
	if gs.fullWake != nil && gs.win.Len() < r.wc.Window {
		w := gs.fullWake
		gs.fullWake = nil
		w()
	}
	if gs.win.Len() == 0 && gs.idleWake != nil {
		w := gs.idleWake
		gs.idleWake = nil
		w()
	}
}

// recvWindowed handles an arriving gbnData on station i: fold in any
// piggybacked reverse ack, deliver in order exactly once, and either
// delay the cumulative ack (coalescing) or — on a duplicate, a gap, or
// a checksum failure — re-assert the stream position immediately so
// the sender can go back.
func (r *Reliable) recvWindowed(st *snet.Station, i int, m snet.Message, d gbnData) {
	if d.ackUpTo >= 0 && !m.Corrupt {
		r.applyAck(i, m.Src, d.ackUpTo)
	}
	gr := r.recvState(st, m.Src)
	if m.Corrupt {
		// Checksum failure: the immediate cumulative ack is the NAK
		// equivalent — it tells the sender exactly where the in-order
		// stream stands.
		r.flushAck(st, m.Src, gr)
		return
	}
	if gr.cur.Classify(d.seq) == arq.InOrder {
		gr.cur.Advance()
		r.Delivered++
		if fn := r.userFns[i]; fn != nil {
			fn(snet.Message{Src: m.Src, Size: m.Size, Payload: d.user})
		}
		if gr.ack.Owe() {
			r.flushAck(st, m.Src, gr)
		}
		return
	}
	// Duplicate (a go-back-N round re-covering old ground) or a gap
	// (something ahead of a loss): both answered with the current
	// cumulative position, immediately.
	r.flushAck(st, m.Src, gr)
}

// flushAck transmits the cumulative ack for everything received in
// order so far and accounts for how many arrivals it covered.
func (r *Reliable) flushAck(st *snet.Station, peer int, gr *gbnRecv) {
	r.noteCoalesced(gr.ack.Take())
	r.sendCtl(st, peer, "gbn-ack", gbnAck{upTo: gr.cur.Next() - 1})
}

// takePiggyback consumes a pending delayed ack owed to peer, returning
// the cumulative position to fold into an outgoing data message, or -1
// when nothing is owed.
func (r *Reliable) takePiggyback(station, peer int) int {
	gr := r.winRecv[[2]int{station, peer}]
	if gr == nil || !gr.ack.Pending() {
		return -1
	}
	r.noteCoalesced(gr.ack.Take())
	r.AcksPiggybacked++
	if tr := r.Tracer; tr.Enabled() {
		tr.Count("flowctl.acks.piggyback", 1)
	}
	return gr.cur.Next() - 1
}

// noteCoalesced charges the coalescing counters for an ack about to be
// emitted covering owed arrivals: every one beyond the first rode
// along for free.
func (r *Reliable) noteCoalesced(owed int) {
	if owed > 1 {
		r.AcksCoalesced += owed - 1
		if tr := r.Tracer; tr.Enabled() {
			tr.Count("flowctl.acks.coalesced", float64(owed-1))
		}
	}
}
