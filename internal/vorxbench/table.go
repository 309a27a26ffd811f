// Package vorxbench regenerates every table, figure, and quantitative
// claim of the paper's evaluation. Each experiment builds a fresh
// simulated HPC/VORX installation, runs the paper's workload, and
// emits a table with the paper's reported numbers alongside the
// measured ones. cmd/benchtables prints them; bench_test.go wraps each
// in a testing.B benchmark; EXPERIMENTS.md records the comparison.
package vorxbench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one reproduced table or figure.
type Table struct {
	ID     string // "T1", "F1", "E4", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// HostNotes are measurements of the host rather than of the
	// simulation (wall clock, scheduler-dependent sync counters).
	// Format and String never print them, so a rendered table is a
	// pure function of the experiment; cmd/benchtables prints them to
	// stderr.
	HostNotes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// HostNote appends a host-dependent footnote (see HostNotes).
func (t *Table) HostNote(format string, args ...any) {
	t.HostNotes = append(t.HostNotes, fmt.Sprintf(format, args...))
}

// Format renders the table, without its host notes.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Format(&b)
	return b.String()
}

// All runs every experiment and returns the tables in paper order.
func All() []*Table {
	return []*Table{
		Figure1(),
		Table1(),
		Table2(),
		E1ChannelThroughput(),
		E2Download(),
		E3UDOLatency(),
		E4Bitmap(),
		E5FFT(),
		E6SNETFlowControl(),
		E7Structuring(),
		E8OpenStorm(),
		E9Allocation(),
		A1SideBuffers(),
		A2TreeFanout(),
		A3FewReceivers(),
		A4TopologyTransparency(),
		A5WindowedChannels(),
		A6SpiceTransport(),
		A7CEMUScaling(),
		F2Scaling(),
		E12FaultStorm(),
		E13Supervision(),
		E14TracingOverhead(),
		E15Pipelined(),
		E16Partitions(),
		E17VChan(),
		E18LatencyObservatory(),
		E19ShardScaling(),
		E20MultiCoreScaling(),
	}
}

// ByID returns the experiment with the given id, or nil.
func ByID(id string) *Table {
	gens := map[string]func() *Table{
		"F1": Figure1, "T1": Table1, "T2": Table2,
		"E1": E1ChannelThroughput, "E2": E2Download, "E3": E3UDOLatency,
		"E4": E4Bitmap, "E5": E5FFT, "E6": E6SNETFlowControl,
		"E7": E7Structuring, "E8": E8OpenStorm, "E9": E9Allocation,
		"A1": A1SideBuffers, "A2": A2TreeFanout,
		"A3": A3FewReceivers, "A4": A4TopologyTransparency,
		"A5": A5WindowedChannels,
		"A6": A6SpiceTransport, "A7": A7CEMUScaling,
		"F2": F2Scaling, "E12": E12FaultStorm, "E13": E13Supervision,
		"E14": E14TracingOverhead, "E15": E15Pipelined, "E16": E16Partitions,
		"E17": E17VChan, "E18": E18LatencyObservatory,
		"E19": E19ShardScaling, "E20": E20MultiCoreScaling,
	}
	if g, ok := gens[strings.ToUpper(id)]; ok {
		return g()
	}
	return nil
}

// IDs lists the experiment ids in paper order.
func IDs() []string {
	return []string{"F1", "T1", "T2", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "F2", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20"}
}

func us(f float64) string   { return fmt.Sprintf("%.0f", f) }
func us1(f float64) string  { return fmt.Sprintf("%.1f", f) }
func secs(f float64) string { return fmt.Sprintf("%.2f", f) }
