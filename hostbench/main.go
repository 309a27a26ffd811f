// Command hostbench is the simulator's host-time benchmark. One op is
// one simulated installation: build it, run a seeded workload to
// completion, check every read. All timings are host time; virtual
// results are folded into a virtual_digest that performance changes
// must leave unchanged.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash hostbench/run.sh --workload m2o_classic --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes the separate
// traced run and prints the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// op is one generated input, ready to run as an installation.
type op interface {
	run(tr *tracing) opResult
}

type workload struct {
	name string
	gen  func(seed int64, j int) op
	// inputs is how many distinct inputs one run cycles through. Op i
	// replays input i%inputs, so every input runs several times and its
	// repeats must reproduce its virtual digest exactly; the workload's
	// virtual_digest covers the inputs in order. chaos_recovery's
	// schedules vary most in cost, so it draws the most inputs, which
	// keeps a run's mix, and its timings, close from seed to seed.
	inputs int
	// sharded ops run in a child process (see child.go), so a panic in
	// the parallel kernel costs one op, not the run.
	sharded bool
}

var workloads = []workload{
	{name: "m2o_classic", gen: func(s int64, j int) op { return genM2O(s, j) }, inputs: 16},
	{name: "stream_pipelined", gen: func(s int64, j int) op { return genStream(s, j) }, inputs: 16},
	{name: "chaos_recovery", gen: func(s int64, j int) op { return genChaos(s, j) }, inputs: 128},
	{name: "sharded_pairs", gen: func(s int64, j int) op { return genPairs(s, j) }, inputs: 16, sharded: true},
}

// In-process, a sharded_pairs input runs on a serial build, the only
// build the tracer rides; its sharded ops run in child processes.
func (p pairsPlan) run(tr *tracing) opResult { return p.runSerial(tr) }

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// minOps keeps at least ten ops beyond p90 however slow the host is.
const minOps = 110

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build/hostbench", "directory for spans and profiles")
	child := flag.Bool("child", false, "internal: run sharded ops and stream results")
	from := flag.Int("from", 0, "internal: first op index of a child")
	until := flag.Int64("until", 0, "internal: child deadline, unix ns")
	profile := flag.String("cpuprofile", "", "internal: child CPU profile path")
	flag.Parse()

	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "hostbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *child {
		os.Exit(childMain(w, *seed, *from, time.Unix(0, *until), *profile))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Printf("hostbench: workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d num_cpu=%d go=%s\n",
		w.name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	dur := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traced == 1 {
		res = tracedRun(w, *seed, dur, *out)
	} else {
		res = plainRun(w, *seed, dur, *out)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// plainRun is the untraced, gated run: the end-to-end metrics.
// msgs_per_s divides by the summed host time of the passing ops (build,
// run, check), which leaves out the loop's own bookkeeping.
func plainRun(w workload, seed int64, dur time.Duration, out string) result {
	r := measure(w, seed, dur, out, false)
	r.report()
	res := r.result()
	res.Metrics = map[string]metric{
		"msgs_per_s":          {ratio(float64(r.msgs), r.opTime.Seconds()), "1/s"},
		"op_ms_p50":           {quantile(r.opMs, 0.5), "ms"},
		"op_ms_p90":           {quantile(r.opMs, 0.9), "ms"},
		"setup_s":             {quantile(r.setupS, 0.5), "s"},
		"alloc_bytes_per_msg": {ratio(float64(r.allocBytes), float64(r.msgs)), "B"},
		"peak_heap_mb":        {float64(r.peakHeap) / (1 << 20), "MiB"},
	}
	return res
}

// run is everything one measured loop saw. Per-op samples are kept as
// preallocated numbers, so the loop's own bookkeeping barely moves the
// heap it samples.
type run struct {
	w         workload
	seed      int64
	traced    bool
	attempted int
	passed    int
	failures  []string
	wrong     bool // some op returned a wrong result (not just a crash)
	inputs    []op
	digests   []uint64
	seen      []bool
	first     []*opResult // the first passing op of each input

	msgs                         int
	opTime                       time.Duration
	opMs, setupS, buildMs, runMs []float64
	allocBytes, peakHeap         uint64

	spans    []span // traced runs only
	t0       time.Time
	ref      []opResult // sharded: the 1-shard reference per input
	children int
}

func newRun(w workload, seed int64, traced bool) *run {
	const capOps = 1 << 14
	inputs := make([]op, w.inputs)
	for j := range inputs {
		inputs[j] = w.gen(seed, j)
	}
	return &run{w: w, seed: seed, traced: traced, inputs: inputs,
		digests: make([]uint64, w.inputs), seen: make([]bool, w.inputs), first: make([]*opResult, w.inputs),
		opMs: make([]float64, 0, capOps), setupS: make([]float64, 0, capOps),
		buildMs: make([]float64, 0, capOps), runMs: make([]float64, 0, capOps)}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the nearest-rank quantile of xs (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// record files one op's outcome: a failed check counts against the
// run, and an op whose input ran before must reproduce its digest.
func (r *run) record(i int, o opResult, alloc, heap uint64, start time.Time) {
	r.attempted++
	j := i % len(r.inputs)
	if o.Err == "" {
		switch {
		case r.ref != nil && o.Digest != r.ref[j].Digest:
			o.Err = fmt.Sprintf("digest %016x differs from the 1-shard reference %016x", o.Digest, r.ref[j].Digest)
		case r.seen[j] && o.Digest != r.digests[j]:
			o.Err = fmt.Sprintf("digest %016x differs from this input's earlier run %016x", o.Digest, r.digests[j])
		}
	}
	if r.traced {
		r.addSpans(i, start, o)
	}
	if o.Err != "" {
		r.wrong = true
		r.fail(i, o.Err)
		return
	}
	if !r.seen[j] {
		r.seen[j], r.digests[j] = true, o.Digest
		r.first[j] = &o
	}
	r.passed++
	r.msgs += o.Msgs
	r.opTime += o.total()
	r.opMs = append(r.opMs, ms(o.total()))
	r.setupS = append(r.setupS, o.Setup.Seconds())
	r.buildMs = append(r.buildMs, ms(o.Build))
	r.runMs = append(r.runMs, ms(o.Run))
	r.allocBytes += alloc
	if heap > r.peakHeap {
		r.peakHeap = heap
	}
}

func (r *run) fail(i int, why string) {
	r.failures = append(r.failures, fmt.Sprintf("op %d (input %d): %s", i, i%len(r.inputs), why))
}

// digest folds the per-input digests; an input no op completed leaves
// a zero in its slot, which makes the digest visibly differ.
func (r *run) digest() uint64 {
	h := uint64(fnvOffset)
	for j := range r.digests {
		h = mix(h, r.digests[j])
	}
	return h
}

func (r *run) result() result {
	return result{
		Correct:   !r.wrong && r.passed > 0,
		Attempted: r.attempted,
		Failed:    len(r.failures),
	}
}

func (r *run) report() {
	fmt.Printf("virtual_digest %s %016x\n", r.w.name, r.digest())
	fmt.Printf("ops: attempted=%d passed=%d failed=%d\n", r.attempted, r.passed, len(r.failures))
	if len(r.failures) > 0 {
		causes := map[string]int{} // first word of each reason: "panic:", "digest", ...
		for _, f := range r.failures {
			causes[strings.Fields(f[strings.Index(f, "): ")+3:])[0]]++
		}
		fmt.Printf("failed by cause: %v\n", causes)
	}
	for i, f := range r.failures {
		if i == 5 {
			fmt.Printf("failed: ... %d more\n", len(r.failures)-i)
			break
		}
		fmt.Println("failed:", f)
	}
}

// measure runs ops for dur (and at least minOps of them). The first op
// is a warm-up: it is checked but not timed.
func measure(w workload, seed int64, dur time.Duration, out string, traced bool) *run {
	r := newRun(w, seed, traced)
	inputs := r.inputs
	if w.sharded {
		r.ref = references(inputs)
		r.t0 = time.Now()
		runChildren(r, time.Now().Add(dur), out, traced)
		return r
	}
	if o, crash := safeRun(inputs[0], nil); crash != "" || o.Err != "" {
		r.wrong = o.Err != ""
		r.attempted++
		r.fail(-1, "warm-up: "+crash+o.Err)
	}
	r.t0 = time.Now()
	deadline := r.t0.Add(dur)
	mem := newMemSampler()
	for i := 0; i < max(minOps, len(inputs)) || time.Now().Before(deadline); i++ {
		alloc0, _ := mem.read()
		start := time.Now()
		o, crash := safeRun(inputs[i%len(inputs)], nil)
		alloc1, heap := mem.read()
		if crash != "" {
			r.attempted++
			r.fail(i, crash)
			continue
		}
		r.record(i, o, alloc1-alloc0, heap, start)
	}
	return r
}

// memSampler reads the bytes allocated so far and the heap in use
// through runtime/metrics, which, unlike runtime.ReadMemStats, does not
// stop the world twice per op.
type memSampler []metrics.Sample

func newMemSampler() memSampler {
	return memSampler{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
}

func (m memSampler) read() (alloc, heapInuse uint64) {
	metrics.Read(m)
	return m[0].Value.Uint64(), m[1].Value.Uint64() + m[2].Value.Uint64()
}

// safeRun runs one op, turning a panic into a failure.
func safeRun(o op, tr *tracing) (res opResult, crash string) {
	defer func() {
		if p := recover(); p != nil {
			crash = fmt.Sprintf("panic: %v", p)
		}
	}()
	return o.run(tr), ""
}
