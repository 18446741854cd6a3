package exp

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"deploy", "faults", "fig10", "fig11", "fig12", "fig13a", "fig13b", "fig13c",
		"fig14", "fig6a", "fig6b", "fig6c", "fig7", "fig8a", "fig8b",
		"fig8c", "fig9", "figapp", "incast", "isolation", "mixed", "table1", "table2",
	}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("table1"); !ok {
		t.Error("table1 not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("found nonexistent experiment")
	}
}

func TestTableString(t *testing.T) {
	tab := Table{
		ID: "x", Title: "test", Note: "a note",
		Header: []string{"col", "value"},
		Rows:   [][]Cell{{label("row1"), num(1, "%.1f")}, {label("longer-row"), num(2, "%.1f")}},
	}
	s := tab.String()
	for _, want := range []string{"== x: test ==", "a note", "col", "longer-row"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestTable1Experiment(t *testing.T) {
	e, _ := ByID("table1")
	tab := e.Run(Params{})
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Spot-check the paper's numbers.
	if tab.Rows[0][3].V != 3584 || tab.Rows[2][3].V != 1536 {
		t.Errorf("chip counts wrong: %v", tab.Rows)
	}
}

func TestFig13aExperiment(t *testing.T) {
	e, _ := ByID("fig13a")
	tab := e.Run(Params{})
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 traces", len(tab.Rows))
	}
}

// TestCellFormats pins every cell format, the unit boundaries of
// durations and sizes among them: the unit is chosen after rounding.
func TestCellFormats(t *testing.T) {
	starred := f2(1)
	starred.star = true
	for _, c := range []struct {
		cell Cell
		want string
	}{
		{label("stall"), "stall"},
		{Cell{}, ""},
		{f2(5.2249), "5.22"},
		{starred, "1.00*"},
		{num(2.5, "%.3f"), "2.500"},
		{count(3584), "3584"},
		{num(12288.0/1000, "%.1fk"), "12.3k"},
		{num(4.14, "%+.1f"), "+4.1"},
		{num(-0.04, "%+.1f"), "-0.0"},
		{num(0.756*100, "%.1f%%"), "75.6%"},
		{secs(0), "0ns"},
		{secs(999.4e-9), "999ns"},
		{secs(999.6e-9), "1us"},
		{secs(2e-6), "2us"},
		{secs(999.4e-6), "999us"},
		{secs(999.6e-6), "1ms"},
		{secs(12.34e-3), "12.3ms"},
		{secs(0.9996), "1s"},
		{secs(1.5), "1.5s"},
		{bytesCell(157), "157B"},
		{bytesCell(999.4), "999B"},
		{bytesCell(999.6), "1.0kB"},
		{bytesCell(1.5e3), "1.5kB"},
		{bytesCell(999_940), "999.9kB"},
		{bytesCell(999_960), "1.0MB"},
		{bytesCell(46.4e6), "46.4MB"},
		{bytesCell(999.96e6), "1.0GB"},
		{bytesCell(2.5e9), "2.5GB"},
	} {
		if got := c.cell.String(); got != c.want {
			t.Errorf("cell %+v prints %q, want %q", c.cell, got, c.want)
		}
	}
	for b, want := range map[int64]string{100_000: "100kB", 10_000_000: "10MB", 1_000_000_000: "1GB"} {
		if got := byteLabel(b); got != want {
			t.Errorf("byteLabel(%d) = %q, want %q", b, got, want)
		}
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Errorf("mean = %v", m)
	}
	if s < 1.99 || s > 2.01 {
		t.Errorf("std = %v, want 2", s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Error("empty meanStd not zero")
	}
}

func TestScaleString(t *testing.T) {
	if ScaleSmall.String() != "small" || ScaleFull.String() != "full" {
		t.Error("scale strings wrong")
	}
}
