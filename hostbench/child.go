package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// Sharded ops run in a re-executed child process: a panic on a shard
// goroutine cannot be recovered in-process, and it must cost one op,
// not the run. The parent keeps exactly one child (one simulation
// process) alive at a time. A child streams one "start <i>" line before
// op i and one "done <json>" line after it; when a child dies, an op
// that started without finishing is a failed op, and the next child
// resumes at the op after it.

// wireOp is one finished op on the child's standard output.
type wireOp struct {
	Op          int
	StartNs     int64
	Alloc, Heap uint64
	R           opResult
}

// references runs every input once on a single shard: the digest each
// sharded op must reproduce. Not timed as part of any op.
func references(inputs []op) []opResult {
	ref := make([]opResult, len(inputs))
	for j, in := range inputs {
		ref[j] = in.(pairsPlan).runSharded(1)
		if ref[j].Err != "" {
			panic(fmt.Sprintf("1-shard reference of input %d failed: %s", j, ref[j].Err))
		}
	}
	return ref
}

// runChildren keeps one child at a time running ops until the deadline
// has passed and minOps ops were attempted.
func runChildren(r *run, deadline time.Time, out string, profiled bool) {
	exe, err := os.Executable()
	if err != nil {
		panic(err)
	}
	next := 0
	for next < max(minOps, len(r.inputs)) || time.Now().Before(deadline) {
		args := []string{"-child", "-workload", r.w.name, "-seed", fmt.Sprint(r.seed),
			"-from", fmt.Sprint(next), "-until", fmt.Sprint(deadline.UnixNano())}
		if profiled {
			args = append(args, "-cpuprofile", childProfile(out, r.children))
		}
		r.children++
		inFlight, last, why := runChild(r, exe, args)
		switch {
		case inFlight >= 0:
			r.attempted++
			r.fail(inFlight, why)
			next = inFlight + 1
		case last >= 0:
			next = last + 1
		case why != "":
			panic("sharded child failed before its first op: " + why)
		default:
			return // the deadline passed before the child's first op
		}
	}
}

func childProfile(out string, n int) string {
	return fmt.Sprintf("%s/child-%d.pprof", out, n)
}

// runChild runs one child to exit. It returns the op that started but
// never finished (-1 if none), the last finished op, and why the child
// ended early.
func runChild(r *run, exe string, args []string) (inFlight, last int, why string) {
	cmd := exec.Command(exe, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		panic(err)
	}
	if err := cmd.Start(); err != nil {
		panic(err)
	}
	inFlight, last = -1, -1
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "start "):
			inFlight, _ = strconv.Atoi(line[len("start "):])
		case strings.HasPrefix(line, "done "):
			var w wireOp
			if err := json.Unmarshal([]byte(line[len("done "):]), &w); err != nil {
				panic(fmt.Sprintf("bad child line %q: %v", line, err))
			}
			r.record(w.Op, w.R, w.Alloc, w.Heap, time.Unix(0, w.StartNs))
			inFlight, last = -1, w.Op
		}
	}
	err = cmd.Wait()
	if err == nil && inFlight < 0 {
		return -1, last, ""
	}
	why = "child exited: " + fmt.Sprint(err)
	for _, l := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(l, "panic: ") {
			why = l
			break
		}
	}
	return inFlight, last, why
}

// childMain runs sharded ops from index from until the deadline, after
// one untimed 1-shard warm-up that the parallel kernel's race cannot
// hit.
func childMain(w workload, seed int64, from int, until time.Time, profile string) int {
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	inputs := make([]pairsPlan, w.inputs)
	for j := range inputs {
		inputs[j] = w.gen(seed, j).(pairsPlan)
	}
	inputs[from%len(inputs)].runSharded(1)
	out := bufio.NewWriter(os.Stdout)
	mem := newMemSampler()
	for i := from; i < max(minOps, len(inputs)) || time.Now().Before(until); i++ {
		fmt.Fprintf(out, "start %d\n", i)
		out.Flush()
		alloc0, _ := mem.read()
		start := time.Now()
		o := inputs[i%len(inputs)].runSharded(pairsShards)
		alloc1, heap := mem.read()
		b, err := json.Marshal(wireOp{i, start.UnixNano(), alloc1 - alloc0, heap, o})
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(out, "done %s\n", b)
		out.Flush()
	}
	return 0
}
