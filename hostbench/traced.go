package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"hpcvorx/internal/core"
	"hpcvorx/internal/obs"
	"hpcvorx/internal/trace"
)

// tracing rides one op's tracer: it counts events per category and
// feeds the latency observatory. A nil *tracing leaves the tracer off.
type tracing struct {
	byCat map[string]int
	an    *obs.Analyzer
}

func newTracing() *tracing { return &tracing{byCat: map[string]int{}, an: obs.NewAnalyzer()} }

func (t *tracing) attach(sys *core.System) {
	if t == nil {
		return
	}
	sys.Trace.SetLimit(1) // the forward sink sees every event; keep no copy
	sys.Trace.SetForward(t)
	sys.Trace.Enable()
}

func (t *tracing) TraceEvent(e trace.Event) {
	t.byCat[e.Kind.Category()]++
	t.an.TraceEvent(e)
}

// span is one phase of one op, in µs since the measured loop began.
type span struct {
	Op      int     `json:"op"`
	Input   int     `json:"input"`
	Phase   string  `json:"phase"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

func (r *run) addSpans(i int, start time.Time, o opResult) {
	at := float64(start.Sub(r.t0).Nanoseconds()) / 1e3
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"build", o.Setup}, {"run", o.Run}, {"check", o.Check}} {
		us := float64(ph.d.Nanoseconds()) / 1e3
		r.spans = append(r.spans, span{Op: i, Input: i % len(r.inputs), Phase: ph.name, StartUs: at, DurUs: us})
		at += us
	}
}

// tracedCategories are the tracer categories the per-layer metrics
// report; the others (snet, flowctl, super, prof, vchan) do not occur
// on every workload.
var tracedCategories = []string{"chan", "hpc", "netif", "kern", "sim"}

// tracedRun is the separate, ungated run that attributes host time and
// work to layers:
//   - a measured loop under the CPU profiler, bucketed by leaf package;
//   - a traced pass: every input once untraced and once traced, digests
//     compared, tracer counts per category and obs attribution;
//   - the layer ladder;
//   - the op spans, written to a file at the end.
func tracedRun(w workload, seed int64, dur time.Duration, out string) result {
	var prof bytes.Buffer
	if !w.sharded {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			panic(err)
		}
	}
	r := measure(w, seed, dur*6/10, out, true)
	if !w.sharded {
		pprof.StopCPUProfile()
	}
	r.report()
	m := map[string]metric{}

	hostTime := map[string]float64{}
	if w.sharded {
		for n := 0; n < r.children; n++ {
			raw, err := os.ReadFile(childProfile(out, n))
			if err != nil || len(raw) == 0 {
				continue // a child that crashed never flushed its profile
			}
			if err := bucketTimes(raw, hostTime); err != nil {
				panic(err)
			}
		}
	} else if err := bucketTimes(prof.Bytes(), hostTime); err != nil {
		panic(err)
	}
	var sum float64
	for _, v := range hostTime {
		sum += v
	}
	for _, b := range buckets {
		pct := 0.0
		if sum > 0 {
			pct = 100 * hostTime[b] / sum
		}
		m["host_pct."+b] = metric{pct, "%"}
	}

	layerMetrics(r, m)
	tracedPass(r, m)
	for k, v := range ladder() {
		m[k] = v
	}

	path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.json", w.name, seed))
	b, err := json.Marshal(r.spans)
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		panic(err)
	}
	fmt.Printf("spans: %d written to %s\n", len(r.spans), path)

	res := r.result()
	res.Metrics = m
	return res
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer work counts from the first passing
// op of each input: one op per input, so for the serial workloads the
// counts are exact functions of the seed.
func layerMetrics(r *run, m map[string]metric) {
	var n, msgs float64
	var c counts
	for _, o := range r.first {
		if o == nil {
			continue
		}
		n++
		msgs += float64(o.Msgs)
		c.Events += o.C.Events
		c.Interrupts += o.C.Interrupts
		c.Coalesced += o.C.Coalesced
		c.HPCSends += o.C.HPCSends
		c.Retransmits += o.C.Retransmits
		c.Migrations += o.C.Migrations
		c.Stale += o.C.Stale
		c.Dups += o.C.Dups
		c.HotUtil += o.C.HotUtil
		c.Cross += o.C.Cross
		c.Sync.HorizonPublishes += o.C.Sync.HorizonPublishes
		c.Sync.NullMessages += o.C.Sync.NullMessages
		c.Sync.Wakeups += o.C.Sync.Wakeups
		c.Sync.DrainRuns += o.C.Sync.DrainRuns
		c.Sync.DrainedEvents += o.C.Sync.DrainedEvents
	}
	ev := float64(c.Events)
	m["sim.events_per_msg"] = metric{ratio(ev, msgs), "events/msg"}
	m["kern.interrupts_per_msg"] = metric{ratio(float64(c.Interrupts), msgs), "intr/msg"}
	m["netif.coalesced_share"] = metric{ratio(float64(c.Coalesced), float64(c.Interrupts)), "share"}
	m["hpc.sends_per_msg"] = metric{ratio(float64(c.HPCSends), msgs), "sends/msg"}
	m["hpc.hottest_link_util"] = metric{ratio(c.HotUtil, n), "share"}
	m["channels.retransmits_per_msg"] = metric{ratio(float64(c.Retransmits), msgs), "rexmit/msg"}
	m["vchan.migrations_per_op"] = metric{ratio(float64(c.Migrations), n), "moves/op"}
	m["vchan.stale_refused_per_op"] = metric{ratio(float64(c.Stale), n), "frames/op"}
	m["verify.dups_per_op"] = metric{ratio(float64(c.Dups), n), "dups/op"}
	m["core.build_ms"] = metric{quantile(r.buildMs, 0.5), "ms"}

	// sim.Group: zero on the workloads that never build one.
	m["group.horizon_publishes_per_event"] = metric{ratio(float64(c.Sync.HorizonPublishes), ev), "pubs/event"}
	m["group.null_messages_per_event"] = metric{ratio(float64(c.Sync.NullMessages), ev), "nulls/event"}
	m["group.wakeups_per_op"] = metric{ratio(float64(c.Sync.Wakeups), n), "wakeups/op"}
	m["group.avg_drain_run"] = metric{c.Sync.AvgDrainRun(), "events/run"}
	m["group.cross_post_share"] = metric{ratio(float64(c.Cross), ev), "share"}
	speedup := 0.0
	if r.ref != nil {
		var serial []float64
		for _, o := range r.ref {
			serial = append(serial, ms(o.Run))
		}
		speedup = ratio(quantile(serial, 0.5), quantile(r.runMs, 0.5))
	}
	m["group.speedup_vs_serial"] = metric{speedup, "x"}
}

// tracedPass runs every input untraced and then traced. The traced run
// must reproduce the untraced digest; the difference in host time is
// the tracing overhead. Sharded inputs run on a serial build here: the
// tracer stays disabled under sharding.
func tracedPass(r *run, m map[string]metric) {
	var plain, traced time.Duration
	var msgs float64
	byCat := map[string]int{}
	var comp [obs.NumComponents]float64
	var lat float64
	for j, in := range r.inputs {
		u, crash := safeRun(in, nil)
		t := newTracing()
		tr, tcrash := safeRun(in, t)
		r.attempted += 2
		switch {
		case crash != "" || u.Err != "":
			r.fail(j, "traced pass, untraced op: "+crash+u.Err)
			continue
		case tcrash != "" || tr.Err != "":
			r.fail(j, "traced pass, traced op: "+tcrash+tr.Err)
			continue
		case tr.Digest != u.Digest:
			r.wrong = true
			r.fail(j, fmt.Sprintf("traced digest %016x differs from untraced %016x", tr.Digest, u.Digest))
			continue
		case r.ref == nil && r.seen[j] && u.Digest != r.digests[j]:
			r.wrong = true
			r.fail(j, fmt.Sprintf("traced-pass digest %016x differs from the measured loop's %016x", u.Digest, r.digests[j]))
			continue
		}
		plain += u.total()
		traced += tr.total()
		msgs += float64(tr.Msgs)
		for k, v := range t.byCat {
			byCat[k] += v
		}
		rep := t.an.Report()
		if err := rep.Check(); err != nil {
			r.wrong = true
			r.fail(j, err.Error())
			continue
		}
		for c := range comp {
			comp[c] += float64(rep.CompTotal[c])
		}
		lat += float64(rep.TotalLat)
	}
	for _, c := range tracedCategories {
		m["trace.events_per_msg."+c] = metric{ratio(float64(byCat[c]), msgs), "events/msg"}
	}
	m["trace.overhead_pct"] = metric{100 * ratio(float64(traced-plain), float64(plain)), "%"}
	for c := obs.Component(0); c < obs.NumComponents; c++ {
		m["obs."+c.String()+"_share"] = metric{ratio(comp[c], lat), "share"}
	}
	var cats []string
	for k, v := range byCat {
		cats = append(cats, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(cats)
	fmt.Printf("trace: events per category %s over %.0f msgs\n", strings.Join(cats, " "), msgs)
}
