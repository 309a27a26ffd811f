package trace

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
)

// FuzzReadFlight feeds arbitrary flight-recorder files to ReadFlight,
// which must reject bad input with an error, never a panic. Every line
// ParseEventLine accepts must survive a FormatEventLine round trip
// unchanged. Seeds: one single-event dump per event kind found in the
// committed heal flight dump, plus its first events as one file.
func FuzzReadFlight(f *testing.F) {
	file, err := os.Open("../../testdata/pr4/trace_heal_flight.txt")
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	sc.Scan() // header
	seen := map[string]bool{}
	var head []string
	for sc.Scan() {
		line := sc.Text()
		if len(head) < 20 {
			head = append(head, line)
		}
		if fields := strings.Fields(line); len(fields) > 3 && !seen[fields[3]] {
			seen[fields[3]] = true
			f.Add("vorx-trace 1 1\n" + line + "\n")
		}
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	f.Add(fmt.Sprintf("vorx-trace 1 %d\n%s\n", len(head), strings.Join(head, "\n")))

	f.Fuzz(func(t *testing.T, data string) {
		ReadFlight(strings.NewReader(data))
		for _, line := range strings.Split(data, "\n") {
			e, err := ParseEventLine(line)
			if err != nil {
				continue
			}
			out := FormatEventLine(e)
			again, err := ParseEventLine(out)
			if err != nil {
				t.Fatalf("%q parsed, but its formatted form %q does not: %v", line, out, err)
			}
			if again != e {
				t.Fatalf("%q round-trips via %q to %+v, want %+v", line, out, again, e)
			}
		}
	})
}
