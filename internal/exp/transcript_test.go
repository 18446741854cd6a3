package exp

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// transcript is the stdout of `pnetbench -exp all -scale small -seed 1
// -workers 1` (the tables alone; wall times go to stderr), committed at
// the repository root. A change that moves a cell regenerates it, so the
// change's diff shows the cell.
const transcript = "../../testdata/small-seed1.txt"

// transcriptTables splits the transcript into each table's String, keyed
// by experiment ID; pnetbench prints a blank line after every table.
func transcriptTables(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(transcript)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, block := range strings.Split(strings.TrimSuffix(string(b), "\n\n"), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(block, "== "), ":")
		out[id] = block + "\n"
	}
	return out
}

// TestTablesMatchTranscript runs the cheap experiments at seed 1 and
// requires each table to print exactly as its block of the transcript,
// and its -format json rows to be its cells' printed text: the strings
// the benchmark harness reads and pins.
func TestTablesMatchTranscript(t *testing.T) {
	want := transcriptTables(t)
	tables := map[string]Table{}
	for _, id := range []string{"table1", "fig13a", "deploy", "fig14", "fig6b", "fig8b", "table2", "fig10"} {
		e, _ := ByID(id)
		tab := e.Run(Params{Seed: 1})
		tables[id] = tab
		if got := tab.String(); got != want[id] {
			t.Errorf("%s differs from %s:\n--- transcript ---\n%s--- run ---\n%s", id, transcript, want[id], got)
		}
		var js struct{ Rows [][]string }
		if err := json.Unmarshal([]byte(tab.JSON(0)), &js); err != nil {
			t.Fatal(err)
		}
		if len(js.Rows) != len(tab.Rows) {
			t.Fatalf("%s: %d JSON rows, %d table rows", id, len(js.Rows), len(tab.Rows))
		}
		for i, row := range tab.Rows {
			if len(js.Rows[i]) != len(row) {
				t.Fatalf("%s row %d: %d JSON cells, %d table cells", id, i, len(js.Rows[i]), len(row))
			}
			for j, c := range row {
				if js.Rows[i][j] != c.String() {
					t.Errorf("%s row %d column %d: JSON %q, cell %q", id, i, j, js.Rows[i][j], c)
				}
			}
		}
	}

	// The numbers themselves, read without parsing text.
	homo8 := math.NaN()
	for _, row := range tables["fig8b"].Rows {
		if row[0].String() == "parallel homogeneous" && row[1].V == 8 {
			homo8 = row[2].V
		}
	}
	if !(math.Abs(homo8-5.22) < 0.005) {
		t.Errorf("fig8b homogeneous 8 planes = %v, want 5.22", homo8)
	}
	e, _ := ByID("fig6c")
	fig6c := e.Run(Params{Seed: 1})
	for i, wantK := range []string{"K=8", "K=16", "K=32"} {
		starred := ""
		for j, c := range fig6c.Rows[i] {
			if c.star {
				starred = fig6c.Header[j]
				break
			}
		}
		if starred != wantK {
			t.Errorf("fig6c %s: first saturating point at %q, want %s", fig6c.Rows[i][0], starred, wantK)
		}
	}
}
