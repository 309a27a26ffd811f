package main

import (
	"bytes"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"hpcvorx/internal/core"
	"hpcvorx/internal/fault"
)

func mustOp(t *testing.T, o op) opResult {
	t.Helper()
	r, crash := safeRun(o, nil)
	if crash != "" || r.Err != "" {
		t.Fatalf("op failed: %s%s", crash, r.Err)
	}
	return r
}

// The same seed must give the same virtual digest, op after op, and a
// different seed a different one.
func TestSameSeedSameDigest(t *testing.T) {
	for _, name := range []string{"m2o_classic", "stream_pipelined", "chaos_recovery"} {
		w, _ := lookup(name)
		for j := 0; j < 2; j++ {
			a := mustOp(t, w.gen(7, j))
			b := mustOp(t, w.gen(7, j))
			c := mustOp(t, w.gen(8, j))
			if a.Digest != b.Digest {
				t.Errorf("%s input %d: digest %016x then %016x for one seed", name, j, a.Digest, b.Digest)
			}
			if a.Digest == c.Digest {
				t.Errorf("%s input %d: seeds 7 and 8 share digest %016x", name, j, a.Digest)
			}
			if a.Msgs == 0 {
				t.Errorf("%s input %d: no messages read", name, j)
			}
		}
	}
}

// The sharded workload's 1-shard reference must agree with a serial
// build: the serial build is what its traced pass rides.
func TestPairsReferenceMatchesSerial(t *testing.T) {
	p := genPairs(3, 0)
	ref := p.runSharded(1)
	ser := p.runSerial(nil)
	if ref.Err != "" || ser.Err != "" {
		t.Fatalf("errors: reference %q, serial %q", ref.Err, ser.Err)
	}
	if ref.Digest != ser.Digest {
		t.Fatalf("1-shard digest %016x, serial %016x", ref.Digest, ser.Digest)
	}
}

func TestSeedsGiveDifferentSchedules(t *testing.T) {
	seen := map[string]int64{}
	for seed := int64(1); seed <= 20; seed++ {
		for j := 0; j < 2; j++ {
			s := genChaos(seed, j).sched
			if prev, dup := seen[s]; dup {
				t.Errorf("seeds %d and %d generate the same schedule:\n%s", prev, seed, s)
			}
			seen[s] = seed
		}
	}
	if genChaos(5, 0).sched != genChaos(5, 0).sched {
		t.Error("one seed generated two schedules")
	}
}

// Every generated schedule must parse and pass the fault engine's
// whole-schedule validation against the system it targets.
func TestGeneratedSchedulesParseAndApply(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		for j := 0; j < 2; j++ {
			p := genChaos(seed, j)
			ops, err := fault.ParseSchedule(strings.NewReader(p.sched))
			if err != nil {
				t.Fatalf("seed %d input %d: %v\n%s", seed, j, err, p.sched)
			}
			if len(ops) == 0 {
				t.Fatalf("seed %d input %d: empty schedule", seed, j)
			}
			if p.storm {
				continue // rebalance targets need a vchan fabric: TestChaosOpsDeliver applies those
			}
			sys, err := core.Build(core.Config{Hosts: 1, Nodes: chaosNodes, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			eng := fault.New(sys.K, p.seed)
			eng.Bind(sys)
			if err := eng.Apply(ops); err != nil {
				t.Fatalf("seed %d input %d: %v\n%s", seed, j, err, p.sched)
			}
		}
	}
}

// Chaos ops recover fully: every write read once, in order, and the
// invariant checker silent (mustOp fails the test otherwise).
func TestChaosOpsDeliver(t *testing.T) {
	for j := 0; j < 32; j++ {
		mustOp(t, genChaos(11, j))
	}
}

// Tracing is a pure observer: the traced op reads the same virtual
// history as the untraced one.
func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, name := range []string{"m2o_classic", "stream_pipelined", "chaos_recovery"} {
		w, _ := lookup(name)
		for j := 0; j < 2; j++ {
			plain := mustOp(t, w.gen(4, j))
			tr := newTracing()
			traced, crash := safeRun(w.gen(4, j), tr)
			if crash != "" || traced.Err != "" {
				t.Fatalf("%s input %d traced: %s%s", name, j, crash, traced.Err)
			}
			if traced.Digest != plain.Digest {
				t.Errorf("%s input %d: traced digest %016x, untraced %016x", name, j, traced.Digest, plain.Digest)
			}
			if tr.byCat["chan"] == 0 || tr.an.Len() == 0 {
				t.Errorf("%s input %d: tracer saw nothing: %v", name, j, tr.byCat)
			}
		}
	}
}

func TestStreamsCheck(t *testing.T) {
	var r opResult
	s := newStreams(2)
	s.read(0, 0, 10)
	s.read(0, 1, 20)
	s.read(1, 0, 15)
	s.finish(&r, 2, 30)
	if r.Err != "stream 1: delivered 1 of 2" || r.Msgs != 3 {
		t.Errorf("loss: err %q msgs %d", r.Err, r.Msgs)
	}
	r = opResult{}
	s = newStreams(1)
	s.read(0, 0, 10)
	s.read(0, 0, 11)
	s.finish(&r, 2, 30)
	if !strings.Contains(r.Err, "read 0, want 1") {
		t.Errorf("duplicate not caught: %q", r.Err)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"hpcvorx/internal/sim.(*Kernel).Run"}, "sim"},
		{[]string{"hpcvorx/internal/topo.(*Topology).Route"}, "other"},
		{[]string{"fmt.(*pp).doPrintf", "fmt.Sprintf"}, "fmt"},
		{[]string{"runtime.memmove", "runtime.concatstrings", "hpcvorx/internal/kern.x"}, "fmt"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.concatstrings"}, "runtime_malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.chansend"}, "runtime_sched"},
		{[]string{"internal/runtime/atomic.Xadd", "runtime.lock2"}, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// A real profile written by runtime/pprof parses, and its buckets
// cover all of its samples.
func TestProfileBuckets(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		mustOp(t, genStream(1, 0))
	}
	pprof.StopCPUProfile()
	acc := map[string]float64{}
	if err := bucketTimes(buf.Bytes(), acc); err != nil {
		t.Fatal(err)
	}
	if len(acc) == 0 {
		t.Fatal("profile has no samples")
	}
	for k := range acc {
		if !slices.Contains(buckets, k) {
			t.Errorf("time in %q, which is not a bucket", k)
		}
	}
	if acc["sim"]+acc["hpc"]+acc["channels"]+acc["kern"]+acc["netif"] == 0 {
		t.Errorf("no simulator time attributed: %v", acc)
	}
}
