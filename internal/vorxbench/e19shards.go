package vorxbench

import (
	"fmt"
	"strings"
	"time"

	"hpcvorx/internal/core"
	"hpcvorx/internal/kern"
	"hpcvorx/internal/objmgr"
	"hpcvorx/internal/sim"
)

// E19 measures the parallel discrete-event kernel: the same
// installation and workload run at increasing shard counts, checking
// that every split dispatches byte-identically to the serial run and
// reporting how the event volume divides across shards. The table is
// deterministic; the events/sec figures are wall-clock and scale with
// host CPUs, so they are host notes, outside the rendered table.

// E19 geometry: 1 host + 31 nodes is 8 clusters of 4, the largest
// power-of-two cluster count the default pool shape yields, so the
// sweep can halve cleanly from 8 shards down to 1.
const (
	e19Nodes = 31
	e19Pairs = 14
	e19Msgs  = 10
)

// shardMeasure is one measured execution of a sharded workload: the
// deterministic outcome digest (byte-comparable across shard counts),
// the virtual-time event volume, and the host-dependent wall clock
// plus conservative-synchronization counters.
type shardMeasure struct {
	Shards   int
	Digest   string
	Events   uint64
	Cross    uint64
	Handoffs int
	Makespan sim.Time
	Wall     time.Duration
	Sync     sim.SyncStats
}

type e19Outcome struct {
	recv int
	done sim.Time
}

// e19Run drives the cross-cluster pair workload at one shard count.
func e19Run(shards int) shardMeasure {
	sh, err := core.BuildSharded(core.Config{Hosts: 1, Nodes: e19Nodes, Seed: 19, Shards: shards})
	if err != nil {
		panic(err)
	}
	out := make([]e19Outcome, e19Pairs)
	for pi := 0; pi < e19Pairs; pi++ {
		pi := pi
		name := fmt.Sprintf("e19-%d", pi)
		wm, rm := sh.Node(pi), sh.Node(pi+e19Pairs)
		size := 192 + 16*pi
		sh.Spawn(wm, "writer", 0, func(sp *kern.Subprocess) {
			sp.SleepFor(sim.Duration(1+17*pi) * sim.Microsecond)
			ch := wm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < e19Msgs; i++ {
				if err := ch.Write(sp, size, fmt.Sprintf("m%d.%d", pi, i)); err != nil {
					return
				}
				sp.SleepFor(sim.Duration(310+7*pi) * sim.Microsecond)
			}
		})
		sh.Spawn(rm, "reader", 0, func(sp *kern.Subprocess) {
			sp.SleepFor(sim.Duration(9+17*pi) * sim.Microsecond)
			ch := rm.Chans.Open(sp, name, objmgr.OpenAny)
			for i := 0; i < e19Msgs; i++ {
				if _, ok := ch.Read(sp); !ok {
					return
				}
				out[pi].recv++
				out[pi].done = rm.Kern.Kernel().Now()
			}
		})
	}
	t0 := time.Now()
	if err := sh.Run(); err != nil {
		panic(err)
	}
	wall := time.Since(t0)

	var b strings.Builder
	for pi, o := range out {
		fmt.Fprintf(&b, "pair%d recv=%d done=%d\n", pi, o.recv, int64(o.done))
	}
	// Group.Now is the trailing clock (a shard with no late events
	// parks early); the makespan is the leading one.
	var makespan sim.Time
	for _, sys := range sh.Sys {
		if n := sys.K.Now(); n > makespan {
			makespan = n
		}
	}
	return shardMeasure{
		Shards:   shards,
		Digest:   b.String(),
		Events:   sh.Group.Scheduled(),
		Cross:    sh.Group.CrossPosts(),
		Handoffs: sh.FabricStats().HandoffsOut,
		Makespan: makespan,
		Wall:     wall,
		Sync:     sh.Group.SyncStats(),
	}
}

// E19ShardScaling sweeps shard counts over one installation.
func E19ShardScaling() *Table {
	t := &Table{
		ID:    "E19",
		Title: "parallel kernel: sharded virtual time vs serial, 8-cluster pool",
		Header: []string{"shards", "events", "cross posts", "handoffs",
			"cross/events (%)", "makespan (us)", "identical"},
	}
	serialDigest := ""
	var serialWall time.Duration
	var runs []shardMeasure
	for _, shards := range []int{1, 2, 4, 8} {
		r := e19Run(shards)
		identical := "yes"
		if shards == 1 {
			serialDigest, serialWall = r.Digest, r.Wall
		} else if r.Digest != serialDigest {
			identical = "NO"
		}
		t.AddRow(
			fmt.Sprint(shards),
			fmt.Sprint(r.Events),
			fmt.Sprint(r.Cross),
			fmt.Sprint(r.Handoffs),
			fmt.Sprintf("%.2f", 100*float64(r.Cross)/float64(r.Events)),
			us(float64(r.Makespan)/1e3),
			identical,
		)
		runs = append(runs, r)
	}
	t.Note("identical = per-pair delivery digest byte-equal to shards=1; the CI shard sweep " +
		"(vorx chaos -shardsweep) enforces the same identity under crash/gray fault schedules")
	t.Note("route-aware lookahead: the promise between two shards is HopFixed (1us) times the " +
		"minimum cube distance between their clusters; a shard advances to " +
		"min(neighbor horizons, global floor + column lookahead), both capped by in-flight mail")
	var parts []string
	for _, r := range runs {
		evps := float64(r.Events) / r.Wall.Seconds()
		parts = append(parts, fmt.Sprintf("shards=%d %.0fk ev/s (%.2fx)",
			r.Shards, evps/1e3, serialWall.Seconds()/r.Wall.Seconds()))
	}
	t.HostNote("wall clock (host-dependent, this run): %s", strings.Join(parts, ", "))
	t.Note("speedup needs real cores: on a 1-CPU host the shard goroutines serialize and " +
		"cross-shard synchronization is pure overhead, the same reason Workers clamps the " +
		"replication pool to the host's CPUs")
	return t
}
