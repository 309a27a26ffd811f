package fault_test

import (
	"strings"
	"testing"

	"hpcvorx/internal/fault"
)

// FuzzParseSchedule feeds arbitrary text to the fault-schedule DSL and
// applies whatever parses to an engine bound to a 4-cluster system.
// Bad schedules must come back as errors, never panics; parsed ops
// carry a positive time and strictly increasing line numbers. Seeds:
// the vorx chaos demo schedule and CI's partition/gray schedule.
func FuzzParseSchedule(f *testing.F) {
	f.Add("# built-in demo storm\n1ms   link-down 0 2\n8ms   link-up 0 2\n2ms   crash node6\n12ms  restart node6\n")
	f.Add("2ms partition 1\n3ms gray node8 4.0 0.25\n6ms heal\n8ms ungray node8\n")
	for _, line := range []string{"2ms partition 1", "3ms gray node8 4.0 0.25", "6ms heal", "8ms ungray node8"} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, text string) {
		ops, err := fault.ParseSchedule(strings.NewReader(text))
		if err != nil {
			return
		}
		last := 0
		for _, op := range ops {
			if op.At <= 0 || op.Line <= last || op.Kind == "" {
				t.Fatalf("parsed op %+v (previous line %d)", op, last)
			}
			last = op.Line
		}
		boundEngine(t).Apply(ops)
	})
}
