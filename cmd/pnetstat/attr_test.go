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
	s.Profile = &report.ProfileSummary{
		Engines: 1, Events: 1000, SimSec: 0.01,
		Bins: []report.ProfileBinSummary{
			{Kind: "hop", Plane: 0, Events: 900},
			{Kind: "deliver", Plane: 0, Events: 100},
		},
		Planes:     []report.ProfilePlane{{Plane: 0, Events: 900, EventsPerSimSec: 9e4}},
		HostEvents: 100,
		HostFrac:   0.1,
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

func TestAttributionCommandNoSpans(t *testing.T) {
	dir := t.TempDir()
	run := writeRun(t, dir, "r.json", testSummary())
	var out, errb bytes.Buffer
	if code := run2(t, []string{"attribution", run}, &out, &errb); code != 0 {
		t.Fatalf("attribution exited %d on a span-less run: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "-spans") {
		t.Errorf("span-less output should point at pnetbench -spans:\n%s", out.String())
	}
}

func TestProfileCommand(t *testing.T) {
	dir := t.TempDir()
	run := writeRun(t, dir, "r.json", spanSummary())

	var out, errb bytes.Buffer
	if code := run2(t, []string{"profile", run}, &out, &errb); code != 0 {
		t.Fatalf("profile exited %d: %s", code, errb.String())
	}
	for _, want := range []string{"host boundary", "plane 0"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("profile output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if code := run2(t, []string{"profile", "-json", run}, &out, &errb); code != 0 {
		t.Fatalf("profile -json exited %d: %s", code, errb.String())
	}
	var p report.ProfileSummary
	if err := json.Unmarshal(out.Bytes(), &p); err != nil {
		t.Fatalf("profile -json output does not decode: %v", err)
	}
	if p.Events != 1000 || p.HostEvents != 100 {
		t.Errorf("decoded profile = %+v", p)
	}
}

func TestAttributionUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run2(t, []string{"attribution"}, &out, &errb); code != 2 {
		t.Errorf("attribution without file exited %d, want 2", code)
	}
	if code := run2(t, []string{"profile"}, &out, &errb); code != 2 {
		t.Errorf("profile without file exited %d, want 2", code)
	}
}
