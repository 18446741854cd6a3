package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pnet/internal/obs"
	"pnet/internal/sim"
)

// replayJSONL folds synthetic packet events through a real fingerprinter
// and writes the resulting records as a metrics JSONL file: flows, so the
// stream summarizes, and the checkpoints.
func replayJSONL(t *testing.T, dir, name string, n, swapAt int, epoch int64) string {
	t.Helper()
	var lines []any
	lines = append(lines, obs.FlowRecord{Type: obs.KindFlow, ID: 1, TPs: 1000 * int64(n), Transport: "tcp", Bytes: 1500, FCT: 1e-6})
	// Flow 3 carries spans so divergence can print the guilty flow's
	// FCT decomposition next to the localized event (synthetic events
	// use flow = i%7+1, so the perturbed pair at i=100 touches flow 3).
	lines = append(lines, obs.FlowRecord{Type: obs.KindFlow, ID: 3, TPs: 1000 * int64(n), Transport: "tcp", Bytes: 3000, FCT: 2e-6,
		Spans: []obs.SpanShare{{Component: "queue", Plane: 1, Ps: 2_000_000}}})
	f := sim.NewFingerprinter(epoch)
	f.OnCheckpoint = func(cp sim.FingerprintCheckpoint) { lines = append(lines, obs.CheckpointRecord(0, epoch, cp)) }
	for i := 0; i < n; i++ {
		j := i
		if swapAt >= 0 {
			if i == swapAt {
				j = swapAt + 1
			} else if i == swapAt+1 {
				j = swapAt
			}
		}
		f.Fold(sim.Time(1000*(i+1)), sim.EvHop, int32(j%2), int64(j%5), int64(j%7+1), int64(j), 1500)
	}
	if cp, ok := f.Partial(); ok {
		lines = append(lines, obs.CheckpointRecord(0, epoch, cp))
	}
	var b bytes.Buffer
	for _, l := range lines {
		raw, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	path := filepath.Join(dir, name+".jsonl")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFingerprintCommand(t *testing.T) {
	dir := t.TempDir()
	m := replayJSONL(t, dir, "a", 100, -1, 32)
	var out, errb bytes.Buffer
	if code := run2(t, []string{"fingerprint", m}, &out, &errb); code != 0 {
		t.Fatalf("fingerprint exited %d: %s", code, errb.String())
	}
	for _, want := range []string{"global ", "host   ", "plane 0", "plane 1", "100 events"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	// A run without fingerprints is a usage error with a pointer.
	noFP := writeRun(t, dir, "plain.json", testSummary())
	out.Reset()
	errb.Reset()
	if code := run2(t, []string{"fingerprint", noFP}, &out, &errb); code != 2 {
		t.Fatalf("fingerprint on fp-free run exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-fingerprint") {
		t.Errorf("error lacks remediation: %s", errb.String())
	}
}

func TestDivergenceCommand(t *testing.T) {
	dir := t.TempDir()
	base := replayJSONL(t, dir, "base", 200, -1, 1)
	same := replayJSONL(t, dir, "same", 200, -1, 1)
	pert := replayJSONL(t, dir, "pert", 200, 100, 1)

	var out, errb bytes.Buffer
	if code := run2(t, []string{"divergence", base, same}, &out, &errb); code != 0 {
		t.Fatalf("matching runs exited %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "MATCH") {
		t.Errorf("output = %q", out.String())
	}

	out.Reset()
	errb.Reset()
	code := run2(t, []string{"divergence", "-k", "2", base, pert}, &out, &errb)
	if code != 1 {
		t.Fatalf("diverged runs exited %d, want 1: %s%s", code, out.String(), errb.String())
	}
	text := out.String()
	// At one event an epoch, events 100/101 are epochs 100/101; flows
	// are i%7+1 = 3 and 4. The ±2 window is five checkpoints a side.
	for _, want := range []string{"DIVERGED", "epoch 100", "first divergent event: epoch 100",
		"base: t=101000ps hop plane=0 link=0 flow=3 seq=100", "cur:  t=101000ps hop plane=1 link=1 flow=4 seq=101",
		"-> epoch=100", "flow 3 (base)", "queue[p1]=2000000ps"} {
		if !strings.Contains(text, want) {
			t.Errorf("divergence output missing %q:\n%s", want, text)
		}
	}
	for _, side := range []string{"base", "cur"} {
		ctx := text[strings.Index(text, "context ("+side+")"):]
		if n := strings.Count(strings.SplitN(ctx, "\n  context", 2)[0], " epoch="); n != 5 {
			t.Errorf("context (%s) holds %d checkpoints, want 5:\n%s", side, n, text)
		}
	}

	// At the default-like cadence the epoch is still localized, with the
	// rerun that names the event.
	base32 := replayJSONL(t, dir, "base32", 200, -1, 32)
	pert32 := replayJSONL(t, dir, "pert32", 200, 100, 32)
	out.Reset()
	errb.Reset()
	if code := run2(t, []string{"divergence", base32, pert32}, &out, &errb); code != 1 {
		t.Fatalf("exited %d, want 1", code)
	}
	if !strings.Contains(out.String(), "epoch 3") || !strings.Contains(out.String(), "-fingerprint-epoch 1") {
		t.Errorf("cadence-32 output lacks the epoch or the cadence-1 remediation:\n%s", out.String())
	}
}

func TestExportTraceCommand(t *testing.T) {
	dir := t.TempDir()
	m := replayJSONL(t, dir, "a", 50, -1, 32)
	outFile := filepath.Join(dir, "trace.json")
	var out, errb bytes.Buffer
	if code := run2(t, []string{"export-trace", "-o", outFile, m}, &out, &errb); code != 0 {
		t.Fatalf("export-trace exited %d: %s", code, errb.String())
	}
	raw, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	// A RunSummary JSON is the wrong input; the error must say so.
	plain := writeRun(t, dir, "plain.json", testSummary())
	out.Reset()
	errb.Reset()
	if code := run2(t, []string{"export-trace", plain}, &out, &errb); code != 2 {
		t.Fatalf("export-trace on summary JSON exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "JSONL") {
		t.Errorf("error lacks input guidance: %s", errb.String())
	}
}
