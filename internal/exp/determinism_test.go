package exp

import (
	"math"
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
// serially and at width 8 and requires the bytes, and every cell's value
// bit for bit, to match. The set covers every parallelized cell shape:
// normalized baselines computed after the join (fig6b/fig6c/fig8c), KSP
// ties seeded per host pair (fig8b), 2-D grids with index dispatch
// (incast), name-keyed maps assembled post-join (fig10), per-variant
// outage cells (faults), and scenario cells sharing a baseline
// (isolation is exercised via the cheaper fig14 path plus incast).
func TestTablesWorkerInvariant(t *testing.T) {
	for _, id := range []string{"fig6b", "fig6c", "fig8b", "fig8c", "fig10", "fig14", "incast", "faults"} {
		serial, wide := runAt(t, id, 1), runAt(t, id, 8)
		if s, w := serial.String(), wide.String(); s != w {
			t.Errorf("%s: table differs between -workers=1 and -workers=8\n--- serial ---\n%s\n--- workers=8 ---\n%s",
				id, s, w)
			continue
		}
		// Equal text can hide values that differ past the printed digits.
		for i, row := range serial.Rows {
			for j, c := range row {
				if w := wide.Rows[i][j].V; math.Float64bits(c.V) != math.Float64bits(w) {
					t.Errorf("%s row %d column %d: %v at -workers=1, %v at -workers=8", id, i, j, c.V, w)
				}
			}
		}
	}
}

// observedRun runs fig6c and then fig10 at width n into one collector,
// set up by configure, and returns the stream's summary with wall time,
// the one quantity allowed to move with scheduling, zeroed. Together the
// two give solver records and four engines running at once.
func observedRun(t *testing.T, n int, configure func(*obs.Collector)) report.RunSummary {
	t.Helper()
	par.SetLimit(n)
	defer par.SetLimit(0)
	c := obs.NewCollector()
	configure(c)
	aggr := report.NewAggregator()
	c.Sink = aggr
	for _, id := range []string{"fig6c", "fig10"} {
		e, _ := ByID(id)
		e.Run(Params{Seed: 1, Obs: c})
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	s := aggr.Summarize(report.Meta{Scale: "small", Seed: 1})
	s.Solver.WallSec = 0
	s.Engine.WallSec = 0
	s.Engine.EventsPerSec = 0
	return s
}

// plainSummary prints a summary's fields rather than its String.
type plainSummary report.RunSummary

// TestSummaryWorkerInvariant runs fig6c and fig10 — solver records,
// link/plane/engine sampling and flows of four concurrent engines —
// through the streaming Aggregator at both widths and requires every
// deterministic RunSummary field to match, link_util.mean included:
// float sums depend on the order of their terms.
func TestSummaryWorkerInvariant(t *testing.T) {
	serial := observedRun(t, 1, func(*obs.Collector) {})
	wide := observedRun(t, 8, func(*obs.Collector) {})
	if !reflect.DeepEqual(serial, wide) {
		t.Errorf("RunSummary differs between workers=1 and workers=8:\nserial: %+v\nwide:   %+v", plainSummary(serial), plainSummary(wide))
	}
	if serial.Flows == 0 || serial.Solver.Calls == 0 || serial.Engine.Networks != 4 || serial.LinkUtil.Count == 0 {
		t.Fatalf("summary is not of solver records and four engines — the comparison proved less: %+v", plainSummary(serial))
	}
}

// TestSpansSummaryWorkerInvariant reruns the invariance check with the
// attribution spans enabled. The attribution tables are integer-summed
// picoseconds, so they must be byte-identical at any worker count.
func TestSpansSummaryWorkerInvariant(t *testing.T) {
	spans := func(c *obs.Collector) { c.Spans = true }
	serial := observedRun(t, 1, spans)
	wide := observedRun(t, 8, spans)
	if serial.Attribution == nil {
		t.Fatalf("spans run produced no attribution: %+v", serial)
	}
	if got, want := wide.AttributionString(), serial.AttributionString(); got != want {
		t.Errorf("attribution tables differ between workers=1 and workers=8:\n--- serial ---\n%s\n--- workers=8 ---\n%s", want, got)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Errorf("spans RunSummary differs between workers=1 and workers=8:\nserial: %+v\nwide:   %+v", plainSummary(serial), plainSummary(wide))
	}
}

// TestFingerprintWorkerInvariant pins the determinism-fingerprint
// contract: the rolling hash chain folded over every fired event is
// identical at workers=1 and workers=8. The chain is order-sensitive
// within an engine, so this only holds because each sweep cell owns its
// engine; across engines the summary XOR-folds, which no attach order can
// disturb.
func TestFingerprintWorkerInvariant(t *testing.T) {
	fingerprint := func(c *obs.Collector) { c.Fingerprint = true }
	serial := observedRun(t, 1, fingerprint).Fingerprint
	wide := observedRun(t, 8, fingerprint).Fingerprint
	if serial == nil || wide == nil {
		t.Fatalf("summary has no fingerprint: serial %+v, wide %+v", serial, wide)
	}
	if *serial != *wide {
		t.Errorf("fingerprints differ between workers=1 and workers=8:\nserial: %+v\nwide:   %+v", serial, wide)
	}
	if serial.Engines != 4 || serial.Events == 0 || serial.Global == "0000000000000000" {
		t.Fatalf("fingerprint is not of fig10's four engines — the comparison proved less: %+v", serial)
	}
}
