package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pnet/internal/report"
)

func spanSummary() report.RunSummary {
	s := testSummary()
	s.Attribution = &report.AttributionSummary{
		Flows:    100,
		TotalSec: 2.0,
		Overall: []report.AttributionCell{
			{Component: "queue", Plane: 0, Seconds: 0.5, Share: 0.25},
			{Component: "serialize", Plane: 0, Seconds: 1.0, Share: 0.5},
			{Component: "rto_stall", Plane: -1, Seconds: 0.5, Share: 0.25},
		},
	}
	return s
}

func TestAttributionCommand(t *testing.T) {
	dir := t.TempDir()
	run := writeRun(t, dir, "r.json", spanSummary())

	var out, errb bytes.Buffer
	if code := run2(t, []string{"attribution", run}, &out, &errb); code != 0 {
		t.Fatalf("attribution exited %d: %s", code, errb.String())
	}
	for _, want := range []string{"rto_stall", "serialize", "25.00%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("attribution output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if code := run2(t, []string{"attribution", "-json", run}, &out, &errb); code != 0 {
		t.Fatalf("attribution -json exited %d: %s", code, errb.String())
	}
	var a report.AttributionSummary
	if err := json.Unmarshal(out.Bytes(), &a); err != nil {
		t.Fatalf("attribution -json output does not decode: %v", err)
	}
	if a.Flows != 100 || len(a.Overall) != 3 {
		t.Errorf("decoded attribution = %+v", a)
	}
}

// TestAttributionCommandNoSpans: a run with no records for a view, with
// or without -json, is a usage error naming both causes: the pnetbench
// flag that records them was off, or nothing the run did makes them. A
// span-less run has no attribution view.
func TestAttributionCommandNoSpans(t *testing.T) {
	run := writeRun(t, t.TempDir(), "attribution.json", testSummary())
	want := "pnetstat: " + run + " has no attribution records: the run was made without pnetbench -spans, or it ran nothing that makes them\n"
	for _, args := range [][]string{{"attribution", run}, {"attribution", "-json", run}} {
		var out, errb bytes.Buffer
		if code := run2(t, args, &out, &errb); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if msg := errb.String(); msg != want {
			t.Errorf("%v: stderr %q, want %q", args, msg, want)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed %q on stdout", args, out.String())
		}
	}
}

// TestProfileCommand: the event-loop profile is gone with its recorder;
// `pnetstat profile` is an unknown command, -json or not.
func TestProfileCommand(t *testing.T) {
	run := writeRun(t, t.TempDir(), "r.json", spanSummary())
	for _, args := range [][]string{{"profile", run}, {"profile", "-json", run}} {
		var out, errb bytes.Buffer
		if code := run2(t, args, &out, &errb); code != 2 || !strings.Contains(errb.String(), `unknown command "profile"`) {
			t.Errorf("%v exited %d, stderr %q; want 2 and an unknown command", args, code, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v printed %q on stdout", args, out.String())
		}
	}
}

func TestAttributionUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run2(t, []string{"attribution"}, &out, &errb); code != 2 {
		t.Errorf("attribution without file exited %d, want 2", code)
	}
}
