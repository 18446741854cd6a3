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
// per engine and writes the resulting records as a metrics JSONL file:
// flows, so the stream summarizes, and the checkpoints. Each entry of
// swaps is one engine, numbered by its position, whose events swapAt and
// swapAt+1 trade places (-1: none); engines after the first run a few
// picoseconds later, so their chains differ from the first event on.
func replayJSONL(t *testing.T, dir, name string, n int, epoch int64, swaps ...int) string {
	t.Helper()
	var lines []any
	for net := range swaps {
		lines = append(lines, obs.FlowRecord{Type: obs.KindFlow, Net: net, ID: 1, TPs: 1000 * int64(n), Transport: "tcp", Bytes: 1500, FCT: 1e-6})
		// Flow 3 carries spans so divergence can print the guilty flow's
		// FCT decomposition next to the localized event (synthetic events
		// use flow = i%7+1, so the perturbed pair at i=100 touches flow 3).
		lines = append(lines, obs.FlowRecord{Type: obs.KindFlow, Net: net, ID: 3, TPs: 1000 * int64(n), Transport: "tcp",
			Bytes: 3000 + 1000*int64(net), FCT: 2e-6, Spans: []obs.SpanShare{{Component: "queue", Plane: 1, Ps: 2_000_000}}})
	}
	for net, swapAt := range swaps {
		f := sim.NewFingerprinter(epoch)
		f.OnCheckpoint = func(cp sim.FingerprintCheckpoint) { lines = append(lines, obs.CheckpointRecord(net, epoch, cp)) }
		for i := 0; i < n; i++ {
			j := i
			if swapAt >= 0 {
				if i == swapAt {
					j = swapAt + 1
				} else if i == swapAt+1 {
					j = swapAt
				}
			}
			f.Fold(sim.Time(1000*(i+1)+net), sim.EvHop, int32(j%2), int64(j%5), int64(j%7+1), int64(j), 1500)
		}
		if cp, ok := f.Partial(); ok {
			lines = append(lines, obs.CheckpointRecord(net, epoch, cp))
		}
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

// TestFingerprintCommand: the fingerprint is one line of the summary, and
// "fingerprint" is no subcommand of its own.
func TestFingerprintCommand(t *testing.T) {
	dir := t.TempDir()
	m := replayJSONL(t, dir, "a", 100, 32, -1)
	var out, errb bytes.Buffer
	if code := run2(t, []string{"fingerprint", m}, &out, &errb); code != 2 || !strings.Contains(errb.String(), `unknown command "fingerprint"`) {
		t.Errorf("fingerprint exited %d, want 2 as an unknown command: %s", code, errb.String())
	}
	f := sim.NewFingerprinter(32)
	for i := 0; i < 100; i++ {
		f.Fold(sim.Time(1000*(i+1)), sim.EvHop, int32(i%2), int64(i%5), int64(i%7+1), int64(i), 1500)
	}
	cp, _ := f.Partial()
	want := "fingerprint: global=" + obs.FormatHash(cp.Global) + " (100 events, 1 engines, epoch 32)\n"
	out.Reset()
	errb.Reset()
	if code := run2(t, []string{"summary", m}, &out, &errb); code != 0 || !strings.Contains(out.String(), want) {
		t.Errorf("summary exited %d, want 0 with the line %q:\n%s%s", code, want, out.String(), errb.String())
	}
	// A run without fingerprints has no such line.
	out.Reset()
	if code := run2(t, []string{"summary", writeRun(t, dir, "plain.json", testSummary())}, &out, &errb); code != 0 || strings.Contains(out.String(), "fingerprint") {
		t.Errorf("summary of a fingerprint-free run exited %d:\n%s", code, out.String())
	}
}

func TestDivergenceCommand(t *testing.T) {
	dir := t.TempDir()
	base := replayJSONL(t, dir, "base", 200, 1, -1)
	same := replayJSONL(t, dir, "same", 200, 1, -1)
	pert := replayJSONL(t, dir, "pert", 200, 1, 100)

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
	base32 := replayJSONL(t, dir, "base32", 200, 32, -1)
	pert32 := replayJSONL(t, dir, "pert32", 200, 32, 100)
	out.Reset()
	errb.Reset()
	if code := run2(t, []string{"divergence", base32, pert32}, &out, &errb); code != 1 {
		t.Fatalf("exited %d, want 1", code)
	}
	if !strings.Contains(out.String(), "epoch 3") || !strings.Contains(out.String(), "-fingerprint-epoch 1") {
		t.Errorf("cadence-32 output lacks the epoch or the cadence-1 remediation:\n%s", out.String())
	}
}

// TestDivergenceFlowOfItsEngine: both engines of a run have a flow 3, and
// the one that diverges is net 1, so the flow printed beside the closing
// event is net 1's, not the first flow 3 in the file.
func TestDivergenceFlowOfItsEngine(t *testing.T) {
	dir := t.TempDir()
	base := replayJSONL(t, dir, "base", 200, 1, -1, -1)
	pert := replayJSONL(t, dir, "pert", 200, 1, -1, 100)
	var out, errb bytes.Buffer
	if code := run2(t, []string{"divergence", "-k", "0", base, pert}, &out, &errb); code != 1 {
		t.Fatalf("diverged runs exited %d, want 1: %s%s", code, out.String(), errb.String())
	}
	for _, want := range []string{"(base net 1, cur net 1) at epoch 100", "flow 3 (base): tcp 4000 bytes"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("divergence output missing %q:\n%s", want, out.String())
		}
	}
}

func TestExportTraceCommand(t *testing.T) {
	dir := t.TempDir()
	m := replayJSONL(t, dir, "a", 50, 32, -1)
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

// TestExportTraceFlowTracks: two engines each have a flow 1 and a flow 3,
// and each of the four flows gets a track of its own.
func TestExportTraceFlowTracks(t *testing.T) {
	dir := t.TempDir()
	m := replayJSONL(t, dir, "two", 50, 32, -1, -1)
	var out, errb bytes.Buffer
	if code := run2(t, []string{"export-trace", m}, &out, &errb); code != 0 {
		t.Fatalf("export-trace exited %d: %s", code, errb.String())
	}
	var doc struct {
		TraceEvents []struct {
			Cat      string
			Pid, Tid int64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	tracks := map[[2]int64]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "flow" {
			tracks[[2]int64{ev.Pid, ev.Tid}]++
		}
	}
	if len(tracks) != 4 {
		t.Errorf("four flows on tracks %v, want four tracks of one flow each", tracks)
	}
}

// TestExportTraceNothingToExport: a stream with nothing to export is exit
// 2, and with -o it leaves no file behind and any file already there as
// it was.
func TestExportTraceNothingToExport(t *testing.T) {
	dir := t.TempDir()
	m := filepath.Join(dir, "solver.jsonl")
	if err := os.WriteFile(m, []byte(`{"type":"solver","exp":"fig7","solver":"gk-free"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run2(t, []string{"export-trace", "-o", filepath.Join(dir, "trace.json"), m}, &out, &errb); code != 2 {
		t.Fatalf("export-trace of a solver-only stream exited %d, want 2", code)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*trace*")); len(left) != 0 {
		t.Errorf("a failed export left %v behind", left)
	}

	// A file already at -o survives a failed export whole, and no
	// temporary file is left beside it.
	old := filepath.Join(dir, "old-trace.json")
	if err := os.WriteFile(old, []byte("an earlier export\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run2(t, []string{"export-trace", "-o", old, m}, &out, &errb); code != 2 {
		t.Fatalf("export-trace over an existing file exited %d, want 2", code)
	}
	if b, err := os.ReadFile(old); err != nil || string(b) != "an earlier export\n" {
		t.Errorf("the file at -o after a failed export: %q, %v; want it unchanged", b, err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*trace*")); len(left) != 1 {
		t.Errorf("after a failed export over %s the directory holds %v", old, left)
	}
}
