package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pnet/internal/obs"
	"pnet/internal/report"
)

// TestFig6cTelemetry is the acceptance path: running a traced fig6c
// with a collector must yield Garg–Könemann solver records, packet
// events of the packet-level companion run covering enqueue and deliver,
// and a metrics stream where every line is valid JSON.
func TestFig6cTelemetry(t *testing.T) {
	var mbuf bytes.Buffer
	c, rec := obs.NewCollector(), &report.Stream{}
	c.Sink = rec
	c.Trace = true
	c.StreamMetrics(&mbuf)

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

	// Packet events cover enqueue and deliver; the stream has every line
	// valid JSON and one line per record the sink saw.
	evs := map[string]int{}
	for _, r := range rec.Packets {
		evs[r.Ev]++
	}
	if evs["enqueue"] == 0 || evs["deliver"] == 0 {
		t.Errorf("packet events = %v, want enqueue and deliver", evs)
	}
	solverLines, packetLines := 0, 0
	for _, line := range splitLines(mbuf.String()) {
		if !json.Valid([]byte(line)) {
			t.Fatalf("bad metrics line %q", line)
		}
		if strings.Contains(line, `"type":"solver"`) {
			solverLines++
		}
		if strings.HasPrefix(line, `{"type":"pkt"`) {
			packetLines++
		}
	}
	if solverLines != len(rec.Solvers) || packetLines != len(rec.Packets) {
		t.Errorf("metrics stream has %d solver and %d packet lines, want %d and %d",
			solverLines, packetLines, len(rec.Solvers), len(rec.Packets))
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
