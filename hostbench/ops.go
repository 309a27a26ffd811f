package main

import (
	"fmt"
	"strings"
	"time"

	"hpcvorx/internal/channels"
	"hpcvorx/internal/core"
	"hpcvorx/internal/fault"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
	"hpcvorx/internal/vchan"
	"hpcvorx/internal/verify"
)

// An op is one simulated installation: build it, run the workload to
// completion, check the result. Host time is split into the three
// phases; setup is the build phase (schedule parse, core.Build or
// BuildSharded, vchan.Enable, verify.Attach*, fault Apply).
type opResult struct {
	Msgs                     int    // application messages read by the application
	Digest                   uint64 // virtual-time digest: read order, seqs, instants
	Setup, Build, Run, Check time.Duration
	Err                      string // non-empty: the op failed its check
	C                        counts
}

func (r opResult) total() time.Duration { return r.Setup + r.Run + r.Check }

// counts are the per-layer work counters one op leaves in the public
// stats of its installation.
type counts struct {
	Events      uint64  // sim events scheduled
	Interrupts  int     // kern interrupts taken
	Coalesced   int     // netif interrupts absorbed into a batch
	HPCSends    int     // hpc messages sent (fragments, acks, control)
	Retransmits int     // channel busy-resume and timeout retransmits
	Migrations  int     // vchan placement moves
	Stale       int     // vchan stale-term frames refused
	Dups        int     // duplicate frames the verify checker saw absorbed
	HotUtil     float64 // busiest link's busy share of the virtual makespan
	Cross       uint64  // sim.Group cross-shard posts
	Sync        sim.SyncStats
}

// streams checks the application's reads: one stream per channel or
// vchannel, each carrying payloads 0, 1, 2, ... in write order, so a
// read that is not the next integer is a loss, duplicate or reorder.
// Each stream is read by one process, so the per-stream slots are safe
// under sharding, and the digest folds them in stream order.
type streams struct {
	next []int
	hash []uint64
	bad  []string
}

func newStreams(n int) *streams {
	s := &streams{next: make([]int, n), hash: make([]uint64, n), bad: make([]string, n)}
	for i := range s.hash {
		s.hash[i] = fnvOffset
	}
	return s
}

func (s *streams) read(i int, payload any, at sim.Time) {
	seq, ok := payload.(int)
	if (!ok || seq != s.next[i]) && s.bad[i] == "" {
		s.bad[i] = fmt.Sprintf("stream %d: read %v, want %d", i, payload, s.next[i])
	}
	s.next[i]++
	s.hash[i] = mix(mix(s.hash[i], uint64(seq)), uint64(at))
}

func (s *streams) fail(i int, format string, args ...any) {
	if s.bad[i] == "" {
		s.bad[i] = fmt.Sprintf("stream %d: ", i) + fmt.Sprintf(format, args...)
	}
}

// finish checks every stream delivered want messages and folds the
// per-stream digests with the final virtual time.
func (s *streams) finish(r *opResult, want int, end sim.Time) {
	h := mix(fnvOffset, uint64(end))
	for i := range s.next {
		r.Msgs += s.next[i]
		h = mix(h, s.hash[i])
		if s.bad[i] == "" && s.next[i] != want {
			s.bad[i] = fmt.Sprintf("stream %d: delivered %d of %d", i, s.next[i], want)
		}
		if s.bad[i] != "" && r.Err == "" {
			r.Err = s.bad[i]
		}
	}
	r.Digest = h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix folds v into an FNV-1a hash, one byte at a time.
func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// machineCounts sums the per-machine layer counters of one system.
func machineCounts(c *counts, sys *core.System) {
	c.Events += sys.K.Scheduled()
	c.HPCSends += sys.IC.Stats().MessagesSent
	for _, m := range sys.Machines() {
		c.Interrupts += m.Kern.Interrupts
		c.Coalesced += m.IF.CoalescedIntr
		c.Retransmits += m.Chans.Retransmits + m.Chans.TimeoutRetransmits
	}
	if end := sys.K.Now(); end > 0 {
		if u := float64(sys.IC.HottestLink().Busy) / float64(end); u > c.HotUtil {
			c.HotUtil = u
		}
	}
}

// timer splits an op's host time into phases.
type timer struct{ mark time.Time }

func startTimer() timer { return timer{time.Now()} }

func (t *timer) lap() time.Duration {
	now := time.Now()
	d := now.Sub(t.mark)
	t.mark = now
	return d
}

// build wraps core.Build, timing it on its own for core.build_ms.
func build(r *opResult, cfg core.Config) *core.System {
	t0 := time.Now()
	sys, err := core.Build(cfg)
	r.Build += time.Since(t0)
	if err != nil {
		panic(fmt.Sprintf("core.Build: %v", err))
	}
	return sys
}

// runM2O: 31 senders, one sink reading round-robin over classic
// stop-and-wait channels, on a fresh 32-node system.
func (p m2oPlan) run(tr *tracing) (r opResult) {
	tm := startTimer()
	sys := build(&r, core.Config{Nodes: m2oSenders + 1, Seed: 1})
	tr.attach(sys)
	r.Setup = tm.lap()

	st := newStreams(m2oSenders)
	nodes := sys.Nodes()
	sink := nodes[0]
	sys.Spawn(sink, "sink", 0, func(sp *kern.Subprocess) {
		chs := make([]*channels.Channel, m2oSenders)
		for i := range chs {
			chs[i] = sink.Chans.Open(sp, fmt.Sprintf("m2o.%d", i+1), objmgr.OpenAny)
		}
		for n := 0; n < m2oSenders*m2oWrites; n++ {
			i := n % m2oSenders
			m, ok := chs[i].Read(sp)
			if !ok {
				st.fail(i, "read failed")
				return
			}
			st.read(i, m.Payload, sp.Now())
		}
	})
	for i := 1; i <= m2oSenders; i++ {
		i, src := i, nodes[i]
		sys.Spawn(src, "src", 0, func(sp *kern.Subprocess) {
			sp.SleepFor(p.start[i])
			ch := src.Chans.Open(sp, fmt.Sprintf("m2o.%d", i), objmgr.OpenAny)
			for k := 0; k < m2oWrites; k++ {
				if err := ch.Write(sp, m2oSize, k); err != nil {
					st.fail(i-1, "write %d: %v", k, err)
					return
				}
			}
		})
	}
	err := sys.Run()
	r.Run = tm.lap()

	st.finish(&r, m2oWrites, sys.K.Now())
	if err != nil {
		r.Err = err.Error()
	}
	r.Check = tm.lap()
	machineCounts(&r.C, sys)
	sys.Shutdown()
	return r
}

// runStream: one pipelined channel from node 0 to node 1.
func (p streamPlan) run(tr *tracing) (r opResult) {
	tm := startTimer()
	sys := build(&r, core.Config{Nodes: 2, Seed: 1, Comm: core.Pipelined()})
	tr.attach(sys)
	r.Setup = tm.lap()

	st := newStreams(1)
	src, dst := sys.Node(0), sys.Node(1)
	sys.Spawn(dst, "stream-sink", 0, func(sp *kern.Subprocess) {
		ch := dst.Chans.Open(sp, "stream", objmgr.OpenAny)
		for range p.sizes {
			m, ok := ch.Read(sp)
			if !ok {
				st.fail(0, "read failed")
				return
			}
			st.read(0, m.Payload, sp.Now())
		}
	})
	sys.Spawn(src, "stream-src", 0, func(sp *kern.Subprocess) {
		ch := src.Chans.Open(sp, "stream", objmgr.OpenAny)
		for k, size := range p.sizes {
			if err := ch.Write(sp, size, k); err != nil {
				st.fail(0, "write %d: %v", k, err)
				return
			}
		}
	})
	err := sys.Run()
	r.Run = tm.lap()

	st.finish(&r, len(p.sizes), sys.K.Now())
	if err != nil {
		r.Err = err.Error()
	}
	r.Check = tm.lap()
	machineCounts(&r.C, sys)
	sys.Shutdown()
	return r
}

func (p chaosPlan) run(tr *tracing) opResult {
	if p.storm {
		return p.runStorm(tr)
	}
	return p.runPairs(tr)
}

// parseOps hands the generated schedule to the fault DSL parser.
func parseOps(sched string) []fault.Op {
	ops, err := fault.ParseSchedule(strings.NewReader(sched))
	if err != nil {
		panic(fmt.Sprintf("generated schedule rejected: %v\n%s", err, sched))
	}
	return ops
}

// applyFaults binds a fault engine that retries forever (partitions
// heal, so giving up mid-cut would lose writes by policy) and applies
// the schedule.
func applyFaults(sys *core.System, seed int64, ops []fault.Op, fab *vchan.Fabric) {
	eng := fault.New(sys.K, seed)
	eng.MaxRetries = 0
	eng.Bind(sys)
	if fab != nil {
		eng.BindVChan(fab.Balancer())
	}
	if err := eng.Apply(ops); err != nil {
		panic(fmt.Sprintf("schedule failed to apply: %v", err))
	}
}

// runPairs: paced channel pairs under a partition/gray/crash schedule
// with the invariant checker attached.
func (p chaosPlan) runPairs(tr *tracing) (r opResult) {
	tm := startTimer()
	ops := parseOps(p.sched)
	sys := build(&r, core.Config{Hosts: 1, Nodes: chaosNodes, Seed: 7})
	tr.attach(sys)
	chk := verify.Attach(sys)
	applyFaults(sys, p.seed, ops, nil)
	r.Setup = tm.lap()

	st := newStreams(chaosPairs)
	for i := 0; i < chaosPairs; i++ {
		i, name := i, fmt.Sprintf("chaos%d", i)
		wm, rm := sys.Node(i), sys.Node(i+chaosPairs)
		sys.Spawn(wm, "writer", 0, func(sp *kern.Subprocess) {
			ch := wm.Chans.Open(sp, name, objmgr.OpenAny)
			for k := 0; k < chaosWrites; k++ {
				if err := ch.Write(sp, p.size, k); err != nil {
					st.fail(i, "write %d: %v", k, err)
					return
				}
				sp.SleepFor(chaosPace)
			}
		})
		sys.Spawn(rm, "reader", 0, func(sp *kern.Subprocess) {
			ch := rm.Chans.Open(sp, name, objmgr.OpenAny)
			for k := 0; k < chaosWrites; k++ {
				m, ok := ch.Read(sp)
				if !ok {
					st.fail(i, "read failed")
					return
				}
				st.read(i, m.Payload, sp.Now())
			}
		})
	}
	err := sys.Run()
	r.Run = tm.lap()

	st.finish(&r, chaosWrites, sys.K.Now())
	if err != nil {
		r.Err = err.Error()
	}
	if v := chk.Violations(); len(v) > 0 && r.Err == "" {
		r.Err = fmt.Sprintf("verify: %d violations, first %v", len(v), v[0])
	}
	r.Check = tm.lap()
	machineCounts(&r.C, sys)
	r.C.Dups = chk.Dups
	sys.Shutdown()
	return r
}

// runStorm: paced vchannel tenants under a rebalance storm with the
// channel and virtualization invariants attached. The balancer's
// beacons tick forever, so the run goes to a fixed virtual horizon
// that covers every heal, restart and control retry.
func (p chaosPlan) runStorm(tr *tracing) (r opResult) {
	tm := startTimer()
	ops := parseOps(p.sched)
	sys := build(&r, core.Config{Hosts: 1, Nodes: chaosNodes, Seed: 7})
	tr.attach(sys)
	fab := vchan.Enable(sys, vchan.Config{Brokers: []int{stormBrokerA, stormBrokerB}})
	type tenant struct {
		name       string
		prod, cons *core.Machine
	}
	tenants := make([]tenant, stormTenants)
	for i := range tenants {
		tenants[i] = tenant{fmt.Sprintf("t%d", i), sys.Node(i), sys.Node(i + stormTenants)}
		fab.Declare(tenants[i].name, tenants[i].prod, tenants[i].cons)
	}
	chk := verify.AttachAll(sys, fab)
	fab.Start()
	applyFaults(sys, p.seed, ops, fab)
	r.Setup = tm.lap()

	st := newStreams(stormTenants)
	for i, tn := range tenants {
		i, tn := i, tn
		sys.Spawn(tn.prod, "w/"+tn.name, 1, func(sp *kern.Subprocess) {
			w := fab.On(tn.prod).OpenWriter(sp, tn.name)
			for k := 0; k < stormWrites; k++ {
				if err := w.Write(sp, 128, k); err != nil {
					st.fail(i, "write %d: %v", k, err)
					return
				}
				sp.SleepFor(stormPace)
			}
		})
		sys.Spawn(tn.cons, "r/"+tn.name, 1, func(sp *kern.Subprocess) {
			rd := fab.On(tn.cons).OpenReader(sp, tn.name)
			for k := 0; k < stormWrites; k++ {
				m, err := rd.Read(sp)
				if err != nil {
					st.fail(i, "read: %v", err)
					return
				}
				st.read(i, m.Payload, sp.Now())
			}
		})
	}
	sys.RunFor(stormHorizon)
	r.Run = tm.lap()

	st.finish(&r, stormWrites, sys.K.Now())
	if v := chk.Violations(); len(v) > 0 && r.Err == "" {
		r.Err = fmt.Sprintf("verify: %d violations, first %v", len(v), v[0])
	}
	r.Check = tm.lap()
	machineCounts(&r.C, sys)
	r.C.Migrations = fab.Balancer().Migrations
	for _, m := range sys.Machines() {
		r.C.Stale += fab.On(m).StaleRefused
	}
	r.C.Dups = chk.Dups + chk.VDups
	sys.Shutdown()
	return r
}

// installation is what the pair traffic needs from a serial System or
// a sharded one.
type installation interface {
	Node(i int) *core.Machine
	Spawn(m *core.Machine, name string, prio int, body func(sp *kern.Subprocess)) *kern.Subprocess
	Run() error
	Shutdown()
}

// spawnPairs starts the paced cross-cluster pair traffic.
func (p pairsPlan) spawnPairs(in installation, st *streams) {
	for i := 0; i < pairsCount; i++ {
		i, name := i, fmt.Sprintf("pair%d", i)
		wm, rm := in.Node(i), in.Node(i+pairsCount)
		in.Spawn(wm, "writer", 0, func(sp *kern.Subprocess) {
			sp.SleepFor(p.start[i])
			ch := wm.Chans.Open(sp, name, objmgr.OpenAny)
			for k := 0; k < pairsWrites; k++ {
				if err := ch.Write(sp, p.size[i], k); err != nil {
					st.fail(i, "write %d: %v", k, err)
					return
				}
				sp.SleepFor(p.pace[i])
			}
		})
		in.Spawn(rm, "reader", 0, func(sp *kern.Subprocess) {
			ch := rm.Chans.Open(sp, name, objmgr.OpenAny)
			for k := 0; k < pairsWrites; k++ {
				m, ok := ch.Read(sp)
				if !ok {
					st.fail(i, "read failed")
					return
				}
				st.read(i, m.Payload, sp.Now())
			}
		})
	}
}

// runSharded runs the pair traffic on sim.Group with the given shard
// count (1 is the serial reference).
func (p pairsPlan) runSharded(shards int) (r opResult) {
	tm := startTimer()
	t0 := time.Now()
	sh, err := core.BuildSharded(core.Config{Hosts: 1, Nodes: pairsNodes, Seed: 20, Shards: shards})
	r.Build = time.Since(t0)
	if err != nil {
		panic(fmt.Sprintf("core.BuildSharded: %v", err))
	}
	r.Setup = tm.lap()

	st := newStreams(pairsCount)
	p.spawnPairs(sh, st)
	err = sh.Run()
	r.Run = tm.lap()

	var end sim.Time // the makespan: the latest shard clock
	for _, sys := range sh.Sys {
		if now := sys.K.Now(); now > end {
			end = now
		}
	}
	st.finish(&r, pairsWrites, end)
	if err != nil {
		r.Err = err.Error()
	}
	r.Check = tm.lap()
	for _, sys := range sh.Sys {
		machineCounts(&r.C, sys)
	}
	r.C.Events = sh.Group.Scheduled()
	r.C.Cross = sh.Group.CrossPosts()
	r.C.Sync = sh.Group.SyncStats()
	sh.Shutdown()
	return r
}

// runSerial runs the pair traffic on a plain serial System, the only
// build the tracer rides (it stays disabled under sharding).
func (p pairsPlan) runSerial(tr *tracing) (r opResult) {
	tm := startTimer()
	sys := build(&r, core.Config{Hosts: 1, Nodes: pairsNodes, Seed: 20})
	tr.attach(sys)
	r.Setup = tm.lap()

	st := newStreams(pairsCount)
	p.spawnPairs(sys, st)
	err := sys.Run()
	r.Run = tm.lap()

	st.finish(&r, pairsWrites, sys.K.Now())
	if err != nil {
		r.Err = err.Error()
	}
	r.Check = tm.lap()
	machineCounts(&r.C, sys)
	sys.Shutdown()
	return r
}
