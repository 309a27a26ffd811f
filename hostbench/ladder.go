package main

import (
	"fmt"
	"time"

	"hpcvorx/internal/core"
	"hpcvorx/internal/hpc"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/m68k"
	"hpcvorx/internal/netif"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/topo"
)

// The layer ladder times public calls, each rung one layer above the
// one it rides: a bare event; a proc sleep/wake (on events); an hpc
// send (on events); a netif send to a registered service (on hpc); a
// channel write read by the peer (on netif and proc switches). The
// difference between a rung and the one below is the upper layer's self
// cost. Each rung is the median of ladderReps timed batches after one
// warm-up batch.
const ladderReps = 5

func timeRung(n int, body func(n int)) float64 {
	body(n / 10)
	var xs []float64
	for i := 0; i < ladderReps; i++ {
		t0 := time.Now()
		body(n)
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return quantile(xs, 0.5)
}

// rungEvent: a self-rescheduling timer, the kernel's tightest loop.
func rungEvent(n int) {
	k := sim.NewKernel(1)
	fired := 0
	var tick func()
	tick = func() {
		if fired++; fired < n {
			k.After(sim.Microsecond, tick)
		}
	}
	k.After(sim.Microsecond, tick)
	mustRun(k.Run())
}

// rungSleep: one proc sleeping n times — each sleep is one timer event
// and two run-token handoffs (proc to kernel loop and back).
func rungSleep(n int) {
	k := sim.NewKernel(1)
	k.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(sim.Microsecond)
		}
	})
	mustRun(k.Run())
}

// rungHPC: one message through a single-cluster fabric per send.
func rungHPC(n int) {
	k := sim.NewKernel(1)
	tp, err := topo.SingleCluster(2)
	if err != nil {
		panic(err)
	}
	ic := hpc.New(k, m68k.DefaultCosts(), tp)
	msg := &hpc.Message{Src: 0, Dst: 1, Size: 512}
	for i := 0; i < n; i++ {
		if ok, err := ic.TrySend(msg, nil); !ok || err != nil {
			panic(fmt.Sprintf("hpc.TrySend: ok=%v err=%v", ok, err))
		}
		mustRun(k.Run())
	}
}

// rungNetif: an interrupt-level send to a registered service.
func rungNetif(n int) {
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	got := 0
	dst := sys.Node(1)
	dst.IF.Register("hostbench", netif.Service{
		Cost:   func(*hpc.Message) sim.Duration { return 0 },
		Handle: func(*hpc.Message) { got++ },
	})
	src := sys.Node(0).IF
	for i := 0; i < n; i++ {
		src.SendAsync(dst.EP, "hostbench", 64, nil, nil)
		mustRun(sys.K.Run())
	}
	if got != n {
		panic(fmt.Sprintf("netif rung: %d of %d delivered", got, n))
	}
	sys.Shutdown()
}

// rungChannel: classic channel writes, each read by the peer.
func rungChannel(n int) {
	sys, err := core.Build(core.Config{Nodes: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	a, b := sys.Node(0), sys.Node(1)
	got := 0
	sys.Spawn(a, "w", 0, func(sp *kern.Subprocess) {
		ch := a.Chans.Open(sp, "ladder", objmgr.OpenAny)
		for i := 0; i < n; i++ {
			if err := ch.Write(sp, 64, nil); err != nil {
				panic(err)
			}
		}
	})
	sys.Spawn(b, "r", 0, func(sp *kern.Subprocess) {
		ch := b.Chans.Open(sp, "ladder", objmgr.OpenAny)
		for i := 0; i < n; i++ {
			if _, ok := ch.Read(sp); ok {
				got++
			}
		}
	})
	mustRun(sys.Run())
	if got != n {
		panic(fmt.Sprintf("channel rung: %d of %d read", got, n))
	}
	sys.Shutdown()
}

func mustRun(err error) {
	if err != nil {
		panic(err)
	}
}

// ladder returns the rung metrics and prints every rung with its self
// cost over the rung it rides.
func ladder() map[string]metric {
	event := timeRung(200000, rungEvent)
	sleep := timeRung(50000, rungSleep)
	send := timeRung(50000, rungHPC)
	ifsend := timeRung(20000, rungNetif)
	write := timeRung(5000, rungChannel)
	fmt.Printf("ladder: event %.1f ns, sleep/wake %.1f ns (+%.1f), hpc send %.1f ns (+%.1f), "+
		"netif send %.1f ns (+%.1f), channel write %.1f ns (+%.1f)\n",
		event, sleep, sleep-event, send, send-event, ifsend, ifsend-send, write, write-ifsend)
	return map[string]metric{
		"sim.ns_per_event":      {event, "ns/event"},
		"sim.ns_per_switch":     {(sleep - event) / 2, "ns/switch"},
		"hpc.ns_per_send":       {send, "ns/send"},
		"netif.ns_per_send":     {ifsend, "ns/send"},
		"channels.ns_per_write": {write, "ns/write"},
	}
}
