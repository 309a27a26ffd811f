package flowctl_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hpcvorx/internal/flowctl"
	"hpcvorx/internal/m68k"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/snet"
)

// reliableOutcome is everything observable about one Reliable run: the
// protocol counters and the virtual instant the simulation went quiet.
type reliableOutcome struct {
	Delivered, Retransmissions, Timeouts int
	AcksCoalesced, AcksPiggybacked       int
	Quiesce                              sim.Time
}

func (o reliableOutcome) String() string {
	return fmt.Sprintf("delivered=%d retrans=%d timeouts=%d coalesced=%d piggybacked=%d quiesce=%d",
		o.Delivered, o.Retransmissions, o.Timeouts, o.AcksCoalesced, o.AcksPiggybacked, int64(o.Quiesce))
}

// runReliable drives Reliable over a 3-station S/NET whose bus loses 4%
// and corrupts 6% of transfers, drawn from a generator seeded with
// seed. Stations 0 and 1 stream to each other (so windowed acks can
// ride reverse data) and station 2 streams to 0; every sender drains
// before it finishes, and the run ends when no event is left.
func runReliable(t *testing.T, seed int64, window int) reliableOutcome {
	t.Helper()
	k := sim.NewKernel(seed)
	nw := snet.NewNetwork(k, m68k.DefaultCosts(), 3)
	rng := rand.New(rand.NewSource(seed))
	nw.SetInjector(snet.InjectorFunc(func(src, dst, size int) snet.Fate {
		switch x := rng.Float64(); {
		case x < 0.04:
			return snet.FateDrop
		case x < 0.10:
			return snet.FateCorrupt
		}
		return snet.FateDeliver
	}))
	rel := flowctl.NewReliable(k, nw)
	rel.SetWindowConfig(flowctl.WindowConfig{Window: window})
	got := map[[2]int][]int{}
	for i := 0; i < 3; i++ {
		i := i
		rel.SetDeliver(i, func(m snet.Message) {
			key := [2]int{m.Src, i}
			got[key] = append(got[key], m.Payload.(int))
		})
	}
	const msgs = 24
	flows := [][2]int{{1, 0}, {0, 1}, {2, 0}}
	for _, fl := range flows {
		src, dst := fl[0], fl[1]
		k.Spawn(fmt.Sprintf("s%d->%d", src, dst), func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				rel.Send(p, nw.Station(src), dst, 40+9*(i%20), i)
			}
			rel.Drain(p, nw.Station(src), dst)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("seed %d window %d: %v", seed, window, err)
	}
	k.Shutdown()
	for _, fl := range flows {
		seqs := got[fl]
		if len(seqs) != msgs {
			t.Fatalf("seed %d window %d flow %v: delivered %d, want %d", seed, window, fl, len(seqs), msgs)
		}
		for i, v := range seqs {
			if v != i {
				t.Fatalf("seed %d window %d flow %v: got[%d]=%d", seed, window, fl, i, v)
			}
		}
	}
	return reliableOutcome{
		Delivered: rel.Delivered, Retransmissions: rel.Retransmissions, Timeouts: rel.Timeouts,
		AcksCoalesced: rel.AcksCoalesced, AcksPiggybacked: rel.AcksPiggybacked,
		Quiesce: k.Now(),
	}
}

// TestReliableCharacterization pins Reliable's observable behaviour —
// counters and quiesce instant — for stop-and-wait and a window of 4
// under seeded loss and corruption. No golden file or benchmark runs
// this protocol, so these figures are what keeps a refactor of its
// sequence and ack machinery byte-identical.
func TestReliableCharacterization(t *testing.T) {
	cases := []struct {
		seed   int64
		window int
		want   string
	}{
		{3, 1, "delivered=72 retrans=6 timeouts=15 coalesced=0 piggybacked=0 quiesce=39389920"},
		{3, 4, "delivered=72 retrans=28 timeouts=7 coalesced=19 piggybacked=8 quiesce=18781060"},
		{11, 1, "delivered=72 retrans=8 timeouts=10 coalesced=0 piggybacked=0 quiesce=23991580"},
		{11, 4, "delivered=72 retrans=38 timeouts=10 coalesced=26 piggybacked=0 quiesce=27416240"},
		{29, 1, "delivered=72 retrans=3 timeouts=13 coalesced=0 piggybacked=0 quiesce=33746280"},
		{29, 4, "delivered=72 retrans=29 timeouts=8 coalesced=28 piggybacked=1 quiesce=17946160"},
	}
	for _, c := range cases {
		if got := runReliable(t, c.seed, c.window).String(); got != c.want {
			t.Errorf("seed %d window %d:\n got %s\nwant %s", c.seed, c.window, got, c.want)
		}
	}
}
