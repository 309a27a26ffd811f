package vorxbench

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) of %s = %q: %v", row, col, tb.ID, tb.Rows[row][col], err)
	}
	return v
}

func TestTable2WithinOnePercentOfPaper(t *testing.T) {
	tb := Table2()
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		got := cell(t, tb, i, 1)
		paper := cell(t, tb, i, 2)
		if math.Abs(got-paper)/paper > 0.01 {
			t.Errorf("%s: %.1f vs paper %.0f", tb.Rows[i][0], got, paper)
		}
	}
}

func TestTable1EndpointsAndShape(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != len(Table1Buffers) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Columns: buffers, then (measured, paper) pairs per size.
	for sizeIdx := range Table1Sizes {
		col := 1 + 2*sizeIdx
		prev := math.Inf(1)
		for r := range tb.Rows {
			v := cell(t, tb, r, col)
			if v > prev+6 {
				t.Errorf("size %d: not monotone at row %d (%.1f after %.1f)",
					Table1Sizes[sizeIdx], r, v, prev)
			}
			prev = v
		}
		// Endpoints within 10%.
		first := cell(t, tb, 0, col)
		last := cell(t, tb, len(tb.Rows)-1, col)
		if p := Table1Paper[1][Table1Sizes[sizeIdx]]; math.Abs(first-p)/p > 0.10 {
			t.Errorf("size %d k=1: %.1f vs paper %.0f", Table1Sizes[sizeIdx], first, p)
		}
		if p := Table1Paper[64][Table1Sizes[sizeIdx]]; math.Abs(last-p)/p > 0.10 {
			t.Errorf("size %d k=64: %.1f vs paper %.0f", Table1Sizes[sizeIdx], last, p)
		}
	}
}

func TestE2DownloadAgreement(t *testing.T) {
	tb := E2Download()
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "70" {
		t.Fatalf("last row = %v", last)
	}
	per, _ := strconv.ParseFloat(last[1], 64)
	tree, _ := strconv.ParseFloat(last[2], 64)
	if per < 10.5 || per > 13.5 {
		t.Errorf("per-process = %.2f s, paper 12", per)
	}
	if tree < 0.8 || tree > 3.2 {
		t.Errorf("tree = %.2f s, paper 2", tree)
	}
	if per/tree < 4 {
		t.Errorf("speedup only %.1fx", per/tree)
	}
}

func TestE8CentralizedScalesWorseThanDistributed(t *testing.T) {
	tb := E8OpenStorm()
	// Rows alternate centralized/distributed for n = 8, 16, 32.
	var cent, dist []float64
	for _, row := range tb.Rows {
		ms, _ := strconv.ParseFloat(row[3], 64)
		if row[1] == "centralized" {
			cent = append(cent, ms)
		} else {
			dist = append(dist, ms)
		}
	}
	if len(cent) != 3 || len(dist) != 3 {
		t.Fatalf("rows: %v", tb.Rows)
	}
	centGrowth := cent[2] / cent[0]
	distGrowth := dist[2] / dist[0]
	if centGrowth < 2.5 {
		t.Errorf("centralized growth 8→32 nodes = %.2fx, should be ~linear (4x)", centGrowth)
	}
	if distGrowth > 2.0 {
		t.Errorf("distributed growth = %.2fx, should be nearly flat", distGrowth)
	}
}

func TestSpiceComparisonFavorsUDO(t *testing.T) {
	ch, udo := SpiceComparison(16, 4, 30)
	if udo >= ch {
		t.Fatalf("udo %.1fms not below channels %.1fms", udo, ch)
	}
}

func TestByIDAndIDs(t *testing.T) {
	if ByID("nope") != nil {
		t.Fatal("unknown id should be nil")
	}
	if tb := ByID("t2"); tb == nil || tb.ID != "T2" {
		t.Fatal("case-insensitive lookup failed")
	}
	if len(IDs()) != 29 {
		t.Fatalf("ids = %v", IDs())
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Note("hello %d", 7)
	tb.HostNote("wall clock %d ms", 42)
	out := tb.String()
	for _, want := range []string{"== X: demo ==", "a  bb", "1  2", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Host notes are host measurements, never part of the rendered table.
	if strings.Contains(out, "wall clock") {
		t.Errorf("host note rendered in:\n%s", out)
	}
}
