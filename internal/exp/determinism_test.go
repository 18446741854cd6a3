package exp

import (
	"reflect"
	"testing"

	"pnet/internal/obs"
	"pnet/internal/par"
	"pnet/internal/report"
)

// The parallel execution contract (DESIGN.md "Parallel execution"):
// every sweep cell owns its engine, RNG, and result slot, so tables and
// summaries are byte-identical at any worker count. These tests pin the
// contract at workers=1 (the serial fallback path, inline in par.Do)
// versus workers=8 (real goroutine fan-out even on one core).

// runAt runs one experiment with the process pool set to n, restoring
// the default pool afterwards.
func runAt(t *testing.T, id string, n int) Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	par.SetLimit(n)
	defer par.SetLimit(0)
	return e.Run(Params{Seed: 1})
}

// TestTablesWorkerInvariant renders each (cheap) experiment's table
// serially and at width 8 and requires the bytes to match. The set
// covers every parallelized cell shape: normalized baselines computed
// after the join (fig6b/fig6c/fig8c), 2-D grids with index dispatch
// (incast), name-keyed maps assembled post-join (fig10), per-variant
// outage cells (faults), and scenario cells sharing a baseline
// (isolation is exercised via the cheaper fig14 path plus incast).
func TestTablesWorkerInvariant(t *testing.T) {
	for _, id := range []string{"fig6b", "fig6c", "fig8c", "fig10", "fig14", "incast", "faults"} {
		serial := runAt(t, id, 1).String()
		wide := runAt(t, id, 8).String()
		if serial != wide {
			t.Errorf("%s: table differs between -workers=1 and -workers=8\n--- serial ---\n%s\n--- workers=8 ---\n%s",
				id, serial, wide)
		}
	}
}

// TestSummaryWorkerInvariant runs fig6c — solver records, a packet-level
// companion run, link/plane/engine sampling — through the streaming
// Aggregator at both widths and requires every deterministic RunSummary
// field to match. Wall-clock fields are the only legitimate difference,
// so they are zeroed before comparing.
func TestSummaryWorkerInvariant(t *testing.T) {
	run := func(n int) report.RunSummary {
		par.SetLimit(n)
		defer par.SetLimit(0)
		c := obs.NewCollector()
		aggr := report.NewAggregator()
		c.Sink = aggr
		e, _ := ByID("fig6c")
		e.Run(Params{Seed: 1, Obs: c})
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		s := aggr.Summarize(report.Meta{Exp: "fig6c", Scale: "small", Seed: 1})
		// Wall time is the one quantity allowed to move with scheduling.
		s.Solver.WallSec = 0
		s.Engine.WallSec = 0
		s.Engine.EventsPerSec = 0
		return s
	}
	serial := run(1)
	wide := run(8)
	if !reflect.DeepEqual(serial, wide) {
		t.Errorf("RunSummary differs between workers=1 and workers=8:\nserial: %+v\nwide:   %+v", serial, wide)
	}
	if serial.Flows == 0 || serial.Solver.Calls == 0 {
		t.Fatalf("summary is empty — the comparison proved nothing: %+v", serial)
	}
}

// TestSpansSummaryWorkerInvariant reruns the invariance check with the
// attribution spans enabled. The attribution tables are integer-summed
// picoseconds, so they must be byte-identical at any worker count.
func TestSpansSummaryWorkerInvariant(t *testing.T) {
	run := func(n int) report.RunSummary {
		par.SetLimit(n)
		defer par.SetLimit(0)
		c := obs.NewCollector()
		c.Spans = true
		aggr := report.NewAggregator()
		c.Sink = aggr
		e, _ := ByID("fig6c")
		e.Run(Params{Seed: 1, Obs: c})
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		s := aggr.Summarize(report.Meta{Exp: "fig6c", Scale: "small", Seed: 1})
		s.Solver.WallSec = 0
		s.Engine.WallSec = 0
		s.Engine.EventsPerSec = 0
		return s
	}
	serial := run(1)
	wide := run(8)
	if serial.Attribution == nil {
		t.Fatalf("spans run produced no attribution: %+v", serial)
	}
	if got, want := wide.AttributionString(), serial.AttributionString(); got != want {
		t.Errorf("attribution tables differ between workers=1 and workers=8:\n--- serial ---\n%s\n--- workers=8 ---\n%s", want, got)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Errorf("spans RunSummary differs between workers=1 and workers=8:\nserial: %+v\nwide:   %+v", serial, wide)
	}
}

// TestFingerprintWorkerInvariant pins the determinism-fingerprint
// contract: the rolling hash chains folded over every fired event —
// global, host (timers), and per-plane — are identical at workers=1 and
// workers=8. The chains are order-sensitive within an engine, so this
// only holds because each sweep cell owns its engine; across engines the
// summary XOR-folds, which no attach order can disturb.
func TestFingerprintWorkerInvariant(t *testing.T) {
	run := func(n int) *report.FingerprintSummary {
		par.SetLimit(n)
		defer par.SetLimit(0)
		c := obs.NewCollector()
		c.Fingerprint = true
		aggr := report.NewAggregator()
		c.Sink = aggr
		e, _ := ByID("fig6c")
		e.Run(Params{Seed: 1, Obs: c})
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		s := aggr.Summarize(report.Meta{Exp: "fig6c", Scale: "small", Seed: 1})
		if s.Fingerprint == nil {
			t.Fatalf("workers=%d: summary has no fingerprint", n)
		}
		return s.Fingerprint
	}
	serial := run(1)
	wide := run(8)
	if !reflect.DeepEqual(serial, wide) {
		t.Errorf("fingerprints differ between workers=1 and workers=8:\nserial: %+v\nwide:   %+v", serial, wide)
	}
	if serial.Events == 0 || serial.Global == "0000000000000000" {
		t.Fatalf("fingerprint is empty — the comparison proved nothing: %+v", serial)
	}
}
