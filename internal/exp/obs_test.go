package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pnet/internal/obs"
	"pnet/internal/report"
)

// TestFig6cTelemetry is the acceptance path: running fig6c with a
// collector must yield Garg–Könemann solver records, a packet-level
// companion trace with enqueue and deliver events, and metric/trace
// streams where every line is valid JSON.
func TestFig6cTelemetry(t *testing.T) {
	var mbuf, tbuf bytes.Buffer
	c, rec := obs.NewCollector(), &report.Stream{}
	c.Sink = rec
	c.StreamMetrics(&mbuf)
	c.StreamTrace(&tbuf)

	e, ok := ByID("fig6c")
	if !ok {
		t.Fatal("fig6c not registered")
	}
	table := e.Run(Params{Seed: 1, Obs: c})
	if len(table.Rows) == 0 {
		t.Fatal("fig6c returned no rows")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Solver instrumentation: one record per (network, K) of the sweep,
	// with GK phase/iteration counts and wall time.
	if len(rec.Solvers) == 0 {
		t.Fatal("no solver records")
	}
	for _, r := range rec.Solvers {
		if r.Exp != "fig6c" || r.Solver != "gk-fixed" {
			t.Errorf("solver record = %+v", r)
		}
		if r.Phases <= 0 || r.Iterations <= 0 || r.Attempts <= 0 {
			t.Errorf("empty GK stats: %+v", r)
		}
		if r.WallSec <= 0 {
			t.Errorf("no wall time: %+v", r)
		}
	}

	// Companion packet run: flows recorded with plane choices.
	if len(rec.Flows) == 0 {
		t.Fatal("no flow records from the companion run")
	}
	for _, f := range rec.Flows {
		if f.FCT <= 0 || f.Bytes <= 0 || len(f.Planes) == 0 {
			t.Errorf("flow record = %+v", f)
		}
	}

	// Streams: every line valid JSON; trace covers enqueue and deliver.
	evs := map[string]int{}
	for _, line := range splitLines(tbuf.String()) {
		var rec struct {
			Type string `json:"type"`
			Ev   string `json:"ev"`
			TPs  int64  `json:"t_ps"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		evs[rec.Ev]++
	}
	if evs["enqueue"] == 0 || evs["deliver"] == 0 {
		t.Errorf("trace events = %v, want enqueue and deliver", evs)
	}
	solverLines := 0
	for _, line := range splitLines(mbuf.String()) {
		if !json.Valid([]byte(line)) {
			t.Fatalf("bad metrics line %q", line)
		}
		if strings.Contains(line, `"type":"solver"`) {
			solverLines++
		}
	}
	if solverLines != len(rec.Solvers) {
		t.Errorf("metrics stream has %d solver lines, want %d", solverLines, len(rec.Solvers))
	}
}

// TestParamsWithoutObs checks experiments run identically with telemetry
// off — the nil path every benchmark takes.
func TestParamsWithoutObs(t *testing.T) {
	e, _ := ByID("fig6c")
	table := e.Run(Params{Seed: 1})
	if len(table.Rows) == 0 {
		t.Fatal("fig6c returned no rows without a collector")
	}
}

func splitLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}
