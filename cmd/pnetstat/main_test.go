package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pnet/internal/report"
)

// writeRun materializes a summary JSON for the CLI to consume.
func writeRun(t *testing.T, dir, name string, s report.RunSummary) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func testSummary() report.RunSummary {
	return report.RunSummary{
		SchemaVersion: report.SchemaVersion,
		Created:       "2026-08-05T00:00:00Z",
		Exp:           "fig9",
		Scale:         "small",
		Seed:          1,
		Flows:         100,
		FlowBytes:     1_000_000,
		FCT:           report.Dist{Count: 100, Mean: 0.02, Min: 0.001, P50: 0.01, P99: 0.05, P999: 0.06, Max: 0.07},
		GoodputBps:    1e9,
		PlaneShares: []report.PlaneShare{
			{Plane: 0, Bytes: 600_000, Share: 0.6},
			{Plane: 1, Bytes: 400_000, Share: 0.4},
		},
		PlaneImbalance: 1.2,
		Solver:         report.SolverSummary{Calls: 3, Phases: 30, Iterations: 900, WallSec: 0.5},
		Engine:         report.EngineSummary{Networks: 2, Events: 10000, WallSec: 0.1, EventsPerSec: 1e5, SimSec: 0.008},
	}
}

func TestSummaryCommand(t *testing.T) {
	dir := t.TempDir()
	run := writeRun(t, dir, "r.json", testSummary())

	var out, errb bytes.Buffer
	if code := run2(t, []string{"summary", run}, &out, &errb); code != 0 {
		t.Fatalf("summary exited %d: %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{"p50=10ms", "p99=50ms", "p999=60ms", "0=60.0%", "1=40.0%", "wall 0.500s"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary output missing %q:\n%s", want, text)
		}
	}

	// -json round-trips.
	out.Reset()
	if code := run2(t, []string{"summary", "-json", run}, &out, &errb); code != 0 {
		t.Fatalf("summary -json exited %d", code)
	}
	var s report.RunSummary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary -json output not JSON: %v", err)
	}
	if s.FCT.P999 != 0.06 {
		t.Errorf("p999 = %v", s.FCT.P999)
	}
}

func run2(t *testing.T, args []string, stdout, stderr *bytes.Buffer) int {
	t.Helper()
	return run(args, stdout, stderr)
}

func TestDiffCommand(t *testing.T) {
	dir := t.TempDir()
	a := writeRun(t, dir, "a.json", testSummary())
	worse := testSummary()
	worse.GoodputBps *= 0.7
	b := writeRun(t, dir, "b.json", worse)

	var out, errb bytes.Buffer
	if code := run2(t, []string{"diff", a, a}, &out, &errb); code != 0 {
		t.Fatalf("self-diff exited %d", code)
	}
	out.Reset()
	if code := run2(t, []string{"diff", a, b}, &out, &errb); code != 1 {
		t.Fatalf("diff with 30%% goodput loss exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "goodput_bps") {
		t.Errorf("diff output:\n%s", out.String())
	}

	// p99 FCT inflated past the 10% default exits 1 naming the metric; a
	// generous threshold lets the same run through.
	bad := testSummary()
	bad.FCT.P99 *= 1.25
	badPath := writeRun(t, dir, "bad.json", bad)
	out.Reset()
	if code := run2(t, []string{"diff", a, badPath}, &out, &errb); code != 1 ||
		!strings.Contains(out.String(), "fct_s.p99") || !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("diff on inflated p99 exited %d, want 1 naming fct_s.p99:\n%s", code, out.String())
	}
	if code := run2(t, []string{"diff", "-threshold", "0.5", a, badPath}, &out, &errb); code != 0 {
		t.Fatalf("diff with 50%% threshold exited %d", code)
	}

	// Runs of different experiments, scales or seeds are not a regression
	// of one another: exit 2 with the mismatch named, not a table.
	for want, mutate := range map[string]func(*report.RunSummary){
		`exp "fig9" vs "fig6c"`:   func(s *report.RunSummary) { s.Exp = "fig6c"; s.GoodputBps *= 0.1 },
		`scale "small" vs "full"`: func(s *report.RunSummary) { s.Scale = "full" },
		"seed 1 vs 2":             func(s *report.RunSummary) { s.Seed = 2 },
	} {
		other := testSummary()
		mutate(&other)
		errb.Reset()
		if code := run2(t, []string{"diff", a, writeRun(t, dir, "other.json", other)}, &out, &errb); code != 2 ||
			!strings.Contains(errb.String(), "not comparable: "+want) {
			t.Errorf("diff across %s exited %d, stderr %q", want, code, errb.String())
		}
	}
	// A metrics stream carries no exp/scale/seed and diffs against any report.
	stream := filepath.Join(dir, "m.jsonl")
	if err := os.WriteFile(stream, []byte(`{"type":"flow","id":1,"bytes":100,"fct_s":0.01}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run2(t, []string{"diff", "-threshold", "100", stream, a}, &out, &errb); code != 0 {
		t.Errorf("diff of a stream against a report exited %d: %s", code, errb.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run2(t, nil, &out, &errb); code != 2 {
		t.Errorf("no args exited %d", code)
	}
	if code := run2(t, []string{"bogus"}, &out, &errb); code != 2 {
		t.Errorf("unknown command exited %d", code)
	}
	if code := run2(t, []string{"summary"}, &out, &errb); code != 2 {
		t.Errorf("summary without file exited %d", code)
	}
	if code := run2(t, []string{"help"}, &out, &errb); code != 0 {
		t.Errorf("help exited %d", code)
	}

	// The retired benchmark trajectory: its subcommands are unknown
	// commands and its flags undefined, not accepted and ignored.
	run := writeRun(t, t.TempDir(), "r.json", testSummary())
	for _, args := range [][]string{
		{"gate", run}, {"baseline", run}, {"summary", "-gobench", "x", run}, {"diff", "-gate-wall", run, run},
	} {
		errb.Reset()
		if code := run2(t, args, &out, &errb); code != 2 ||
			!strings.Contains(errb.String(), "unknown command") && !strings.Contains(errb.String(), "flag provided but not defined") {
			t.Errorf("%v exited %d, stderr %q", args, code, errb.String())
		}
	}
}
