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
		Rows:   [][]string{{"row1", "1.0"}, {"longer-row", "2.0"}},
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
	if tab.Rows[0][3] != "3584" || tab.Rows[2][3] != "1536" {
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

func TestByteLabels(t *testing.T) {
	cases := map[int64]string{
		100_000:       "100kB",
		10_000_000:    "10MB",
		1_000_000_000: "1GB",
	}
	for b, want := range cases {
		if got := byteLabel(b); got != want {
			t.Errorf("byteLabel(%d) = %q, want %q", b, got, want)
		}
	}
	if got := byteLabelF(1.5e3); got != "1.5kB" {
		t.Errorf("byteLabelF = %q", got)
	}
	if got := secs(0.000_002); got != "2us" {
		t.Errorf("secs = %q", got)
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
