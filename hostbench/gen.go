package main

import (
	"fmt"
	"math/rand"
	"strings"

	"hpcvorx/internal/sim"
)

// The benchmark owns its inputs: every traffic plan and fault schedule
// below is derived from (workload seed, input index) and handed to the
// simulator as plain parameters or, for faults, as schedule text that
// goes through fault.ParseSchedule like a user's file. Nothing here
// calls the repository's own experiment drivers, so no later change to
// them can quietly resize a workload.

// rngFor returns the generator for input j of a run seeded with seed.
// The splitmix64 finalizer keeps neighbouring seeds and indices from
// producing correlated streams.
func rngFor(seed int64, j int) *rand.Rand {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(j+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z >> 1)))
}

// m2oPlan is one many-to-one op: m2oSenders nodes each write m2oWrites
// messages of m2oSize bytes to node 0 over their own classic channel,
// starting at a seeded offset.
type m2oPlan struct {
	start []sim.Duration // per sender, indexed from sender 1
}

const (
	m2oSenders = 31
	m2oWrites  = 40
	m2oSize    = 800
)

func genM2O(seed int64, j int) m2oPlan {
	rng := rngFor(seed, j)
	p := m2oPlan{start: make([]sim.Duration, m2oSenders+1)}
	for i := 1; i <= m2oSenders; i++ {
		p.start[i] = sim.Duration(rng.Intn(200)) * sim.Microsecond
	}
	return p
}

// streamPlan is one pipelined stream op: node 0 writes len(sizes)
// messages of roughly 8 KB to node 1 over one channel.
type streamPlan struct {
	sizes []int
}

const streamWrites = 800

func genStream(seed int64, j int) streamPlan {
	rng := rngFor(seed, j)
	p := streamPlan{sizes: make([]int, streamWrites)}
	for i := range p.sizes {
		p.sizes[i] = 8192 - 8*rng.Intn(64)
	}
	return p
}

// Chaos geometry: 1 host + 15 nodes is four clusters of four, the
// smallest build a partition can cut. Channel pairs use nodes 0-11;
// nodes 12-14 carry no application endpoint, so a crash there costs
// recovery work but never kills a writer or reader (whose writes would
// then be lost by design, not by a fault in the protocols).
const (
	chaosNodes    = 15
	chaosPairs    = 6
	chaosWrites   = 10
	chaosPace     = 350 * sim.Microsecond
	chaosFreeLow  = 12
	chaosFreeHigh = 14
)

// Storm geometry: the same pool; lanes on nodes 13 and 14 (cluster 3),
// producers on nodes 0-3 and consumers on nodes 4-7.
const (
	stormTenants = 4
	stormWrites  = 12
	stormPace    = 300 * sim.Microsecond
	stormBrokerA = 13
	stormBrokerB = 14
	stormHorizon = 60 * sim.Millisecond
)

// chaosPlan is one chaos_recovery op: a channel-pair run under a
// partition/gray/crash schedule (storm false) or a vchannel run under a
// rebalance storm (storm true). sched is fault-DSL text.
type chaosPlan struct {
	storm bool
	sched string
	seed  int64 // the fault engine's seed (gray drop draws)
	size  int   // channel-pair write size
}

// genChaos alternates the two kinds with the input index, so a run's
// ops alternate too.
func genChaos(seed int64, j int) chaosPlan {
	rng := rngFor(seed, j)
	faultSeed := rng.Int63()
	if j%2 == 1 {
		return chaosPlan{storm: true, sched: stormSchedule(rng), seed: faultSeed}
	}
	return chaosPlan{sched: chaosSchedule(rng), seed: faultSeed, size: 128 + 32*rng.Intn(8)}
}

// schedule accumulates fault-DSL lines at distinct instants: the DSL
// rejects two ops at the same instant as ambiguous.
type schedule struct {
	used  map[int]bool
	lines []string
}

func (s *schedule) at(us int) int {
	if s.used == nil {
		s.used = map[int]bool{}
	}
	for s.used[us] {
		us++
	}
	s.used[us] = true
	return us
}

func (s *schedule) add(format string, args ...any) {
	s.lines = append(s.lines, fmt.Sprintf(format, args...))
}

func (s *schedule) text() string { return strings.Join(s.lines, "\n") + "\n" }

// chaosSchedule: always a partition cutting one or two of the non-host
// clusters, usually a gray node, often a crash/restart of a node that
// hosts no endpoint.
func chaosSchedule(rng *rand.Rand) string {
	var s schedule
	pStart := s.at(1800 + rng.Intn(1201))
	pDur := 1000 + rng.Intn(3001)
	perm := rng.Perm(3)
	spec := fmt.Sprint(perm[0] + 1)
	if rng.Intn(2) == 1 {
		a, b := perm[0]+1, perm[1]+1
		if a > b {
			a, b = b, a
		}
		spec = fmt.Sprintf("%d,%d", a, b)
	}
	s.add("%dus partition %s", pStart, spec)
	s.add("%dus heal", s.at(pStart+pDur))

	if rng.Float64() < 0.7 {
		g := rng.Intn(chaosNodes)
		slow := []float64{2, 4, 8}[rng.Intn(3)]
		drop := []float64{0, 0.15, 0.35}[rng.Intn(3)]
		gStart := s.at(1500 + rng.Intn(1501))
		s.add("%dus gray node%d %g %g", gStart, g, slow, drop)
		s.add("%dus ungray node%d", s.at(gStart+1500+rng.Intn(2501)), g)
	}

	if rng.Intn(2) == 1 {
		c := chaosFreeLow + rng.Intn(chaosFreeHigh-chaosFreeLow+1)
		cAt := s.at(1500 + rng.Intn(2001))
		s.add("%dus crash node%d", cAt, c)
		s.add("%dus restart node%d", s.at(cAt+2100+rng.Intn(2901)), c)
	}
	return s.text()
}

// stormSchedule: two to four forced migrations, half the time a broker
// crash (every migration then targets the survivor), usually a
// partition of the tenant clusters, sometimes a gray broker.
func stormSchedule(rng *rand.Rand) string {
	var s schedule
	crashed := -1
	if rng.Intn(2) == 1 {
		crashed = []int{stormBrokerA, stormBrokerB}[rng.Intn(2)]
		cAt := s.at(1200 + rng.Intn(2001))
		s.add("%dus crash node%d", cAt, crashed)
		s.add("%dus restart node%d", s.at(cAt+1500+rng.Intn(4001)), crashed)
	}
	for i, n := 0, 2+rng.Intn(3); i < n; i++ {
		tenant := rng.Intn(stormTenants)
		target := []int{stormBrokerA, stormBrokerB}[rng.Intn(2)]
		if crashed >= 0 {
			target = stormBrokerA + stormBrokerB - crashed
		}
		s.add("%dus rebalance t%d node%d", s.at(500+rng.Intn(5501)), tenant, target)
	}
	if rng.Float64() < 0.8 {
		pStart := s.at(1800 + rng.Intn(1201))
		s.add("%dus partition %s", pStart, []string{"1", "2", "1,2"}[rng.Intn(3)])
		s.add("%dus heal", s.at(pStart+1000+rng.Intn(3001)))
	}
	if rng.Float64() < 0.5 {
		g := []int{stormBrokerA, stormBrokerB}[rng.Intn(2)]
		gStart := s.at(1500 + rng.Intn(1501))
		s.add("%dus gray node%d %g %g", gStart, g,
			[]float64{2, 4}[rng.Intn(2)], []float64{0, 0.15, 0.3}[rng.Intn(3)])
		s.add("%dus ungray node%d", s.at(gStart+1500+rng.Intn(2501)), g)
	}
	return s.text()
}

// pairsPlan is one sharded_pairs op on the E20-shaped pool: 1 host + 63
// nodes (16 clusters of 4), pair p writing from node p to node p+30.
type pairsPlan struct {
	start, pace []sim.Duration
	size        []int
}

const (
	pairsNodes  = 63
	pairsCount  = 30
	pairsWrites = 60
	pairsShards = 2
)

func genPairs(seed int64, j int) pairsPlan {
	rng := rngFor(seed, j)
	p := pairsPlan{
		start: make([]sim.Duration, pairsCount),
		pace:  make([]sim.Duration, pairsCount),
		size:  make([]int, pairsCount),
	}
	for i := range p.start {
		p.start[i] = sim.Duration(1+rng.Intn(330)) * sim.Microsecond
		p.pace[i] = sim.Duration(170+rng.Intn(150)) * sim.Microsecond
		p.size[i] = 128 + 8*rng.Intn(30)
	}
	return p
}
