package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pnet/internal/obs"
)

// traceStream writes a small synthetic stream covering every record
// shape the exporter consumes: span-carrying flows, plane/engine
// samples, faults, and fingerprint checkpoints that name a packet event,
// a timer and (the final one) none.
func traceStream(t *testing.T) string {
	return writeStream(t, func(s obs.Sink) {
		s.Flow(obs.FlowRecord{Type: obs.KindFlow, ID: 1, TPs: 5_000_000, Transport: "tcp", Src: 0, Dst: 1, Bytes: 30000, FCT: 3e-6,
			Planes: []int32{0, 1},
			Spans: []obs.SpanShare{
				{Component: "serialize", Plane: 0, Ps: 1_000_000},
				{Component: "queue", Plane: 1, Ps: 2_000_000},
			}})
		s.Flow(obs.FlowRecord{Type: obs.KindFlow, ID: 2, TPs: 9_000_000, Transport: "tcp", Src: 1, Dst: 0, Bytes: 1500, FCT: 2e-6})
		s.Flow(obs.FlowRecord{Type: obs.KindFlow, ID: 3, Transport: "tcp", Bytes: 10}) // no TPs: old stream, skipped
		s.Plane(obs.PlaneRecord{Type: obs.KindPlane, Net: 0, TPs: 1_000_000, Plane: 0, TxBytes: 1000})
		s.Plane(obs.PlaneRecord{Type: obs.KindPlane, Net: 0, TPs: 2_000_000, Plane: 1, TxBytes: 500})
		s.Engine(obs.EngineRecord{Type: obs.KindEngine, Net: 0, TPs: 1_000_000, Events: 10, HeapLen: 3})
		s.Fault(obs.FaultRecord{Type: obs.KindFault, Net: 0, TPs: 4_000_000, Event: "inject", Target: "link:2", Plane: 1})
		s.Fault(obs.FaultRecord{Type: obs.KindFault, Net: 0, TPs: 6_000_000, Event: "detect", Target: "plane:1", Plane: -1, LatencySec: 2e-6})
		fp := obs.FingerprintRecord{Type: obs.KindFingerprint, EpochEvents: 1, Hash: obs.FormatHash(1)}
		hop, timer, final := fp, fp, fp
		hop.Events, hop.TPs, hop.Kind, hop.Plane, hop.Link, hop.Flow, hop.Size = 1, 100_000, "hop", 1, 2, 1, 1500
		timer.Epoch, timer.Events, timer.TPs, timer.Kind, timer.Plane, timer.Link = 1, 2, 200_000, "timer", -1, -1
		final.Epoch, final.Events, final.TPs, final.Final = 2, 2, 200_000, true
		s.Fingerprint(hop)
		s.Fingerprint(timer)
		s.Fingerprint(final)
	})
}

// exportTrace runs ExportTrace on the stream at path and decodes what it
// wrote, which must be one JSON document holding as many events as it
// reports.
func exportTrace(t *testing.T, path string) []TraceEvent {
	t.Helper()
	var buf bytes.Buffer
	n, err := ExportTrace(path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if n != len(doc.TraceEvents) {
		t.Errorf("ExportTrace reports %d events, wrote %d", n, len(doc.TraceEvents))
	}
	return doc.TraceEvents
}

// TestExportTraceSchema validates the export against the Chrome Trace
// Event format: the wrapper object, the phase set this exporter emits,
// metadata naming, and non-negative microsecond timestamps.
func TestExportTraceSchema(t *testing.T) {
	var raw bytes.Buffer
	if _, err := ExportTrace(traceStream(t), &raw); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Unit != "ns" && doc.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ns or ms", doc.Unit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	phases := map[string]bool{"M": true, "X": true, "C": true, "i": true}
	sawPhase := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if !phases[ph] {
			t.Fatalf("event %d: phase %q outside the spec set M/X/C/i: %v", i, ph, ev)
		}
		sawPhase[ph] = true
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d: pid missing or not a number: %v", i, ev)
		}
		switch ph {
		case "M":
			name, _ := ev["name"].(string)
			if name != "process_name" && name != "thread_name" {
				t.Errorf("event %d: metadata name %q", i, name)
			}
			args, _ := ev["args"].(map[string]any)
			if _, ok := args["name"].(string); !ok {
				t.Errorf("event %d: metadata without args.name: %v", i, ev)
			}
		case "X":
			if ts := ev["ts"].(float64); ts < 0 {
				t.Errorf("event %d: negative ts %v", i, ts)
			}
			if dur, ok := ev["dur"].(float64); ok && dur < 0 {
				t.Errorf("event %d: negative dur %v", i, dur)
			}
		case "i":
			if s, _ := ev["s"].(string); s != "g" && s != "p" && s != "t" && s != "" {
				t.Errorf("event %d: instant scope %q", i, s)
			}
		}
	}
	for _, ph := range []string{"M", "X", "C", "i"} {
		if !sawPhase[ph] {
			t.Errorf("export exercised no %q events", ph)
		}
	}
}

// TestExportTraceEveryRecord: each record the exporter maps becomes its
// events exactly once, whatever its kind.
func TestExportTraceEveryRecord(t *testing.T) {
	got := map[string]int{}
	for _, ev := range exportTrace(t, traceStream(t)) {
		got[ev.Ph+" "+ev.Cat]++
	}
	want := map[string]int{
		"M ":      3 + 2, // the hosts and two planes, the two timed flows' tracks
		"X flow":  2,
		"X span":  2,
		"C ":      3, // two tx_bytes samples, one heap depth
		"i fault": 2,
		"i fp":    2, // the hop and the timer; the final checkpoint names no event
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("events by phase and category = %v, want %v", got, want)
	}
}

// TestExportTraceFlows pins the flow mapping: span children partition
// the flow slice exactly, flows without spans fall back to the FCT, and
// flows without completion timestamps are skipped.
func TestExportTraceFlows(t *testing.T) {
	evs := exportTrace(t, traceStream(t))
	var flow1 *TraceEvent
	var children []TraceEvent
	flowSlices := 0
	for i, ev := range evs {
		if ev.Cat == "flow" {
			flowSlices++
			if ev.Tid == 1 {
				flow1 = &evs[i]
			}
		}
		if ev.Cat == "span" && ev.Tid == 1 {
			children = append(children, ev)
		}
	}
	if flowSlices != 2 {
		t.Errorf("flow slices = %d, want 2 (flow 3 lacks t_ps)", flowSlices)
	}
	if flow1 == nil {
		t.Fatal("flow 1 slice missing")
	}
	// Flow 1: spans total 3e6 ps, completes at 5e6 ps → [2, 5] us.
	if flow1.Ts != 2 || flow1.Dur != 3 {
		t.Errorf("flow 1 interval = [%v, +%v]us, want [2, +3]", flow1.Ts, flow1.Dur)
	}
	if len(children) != 2 {
		t.Fatalf("flow 1 has %d span children, want 2", len(children))
	}
	var sum float64
	end := flow1.Ts
	for _, c := range children {
		if c.Ts < flow1.Ts-1e-9 || c.Ts+c.Dur > flow1.Ts+flow1.Dur+1e-9 {
			t.Errorf("span child [%v,+%v] outside flow [%v,+%v]", c.Ts, c.Dur, flow1.Ts, flow1.Dur)
		}
		if math.Abs(c.Ts-end) > 1e-9 {
			t.Errorf("span child at %v does not abut previous end %v", c.Ts, end)
		}
		end = c.Ts + c.Dur
		sum += c.Dur
	}
	if math.Abs(sum-flow1.Dur) > 1e-9 {
		t.Errorf("span children sum to %v us, flow dur %v", sum, flow1.Dur)
	}
}

// TestExportTraceEmpty: a stream with nothing to export is an error that
// writes nothing.
func TestExportTraceEmpty(t *testing.T) {
	nothing := writeStream(t, func(s obs.Sink) {
		s.Solver(obs.SolverRecord{Type: obs.KindSolver, Exp: "fig7"})
		s.Flow(obs.FlowRecord{Type: obs.KindFlow, ID: 3, Transport: "tcp", Bytes: 10}) // no TPs: no slice
	})
	var buf bytes.Buffer
	if _, err := ExportTrace(nothing, &buf); err == nil || buf.Len() != 0 {
		t.Errorf("stream with nothing to export: err %v, %d bytes written; want an error and none", err, buf.Len())
	}
}

// TestExportTraceEventsOnTheirNet: on a two-engine stream fingerprinted
// at one event per checkpoint, every checkpoint that names an event (all
// but a final one) is one instant, in stream order, at the event's time,
// on the process of the event's own engine and plane, or of its engine's
// hosts for a timer. Both engines carry packets on both planes, so an
// instant drawn on the wrong net or plane lands on a process of the wrong
// name.
func TestExportTraceEventsOnTheirNet(t *testing.T) {
	var buf bytes.Buffer
	c := obs.NewCollector()
	c.Fingerprint, c.FingerprintEpoch = true, 1
	c.StreamMetrics(&buf)
	for range 2 {
		eng, net, paths := twoPlaneNet()
		c.AttachNetwork(eng, net)
		for i := range 6 {
			p := net.NewPacket()
			p.Size = 1500
			p.Route = paths[i%2].Links
			p.Deliver = releaseSink{net}
			net.Send(p)
		}
		eng.Run()
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	type instant struct {
		process string
		ts      float64
	}
	var want []instant
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.HasPrefix(line, `{"type":"fp"`) {
			continue
		}
		var r obs.FingerprintRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		if r.Final {
			continue
		}
		process := fmt.Sprintf("net %d plane %d", r.Net, r.Plane)
		if r.Kind == "timer" {
			process = fmt.Sprintf("net %d hosts (flows)", r.Net)
		}
		want = append(want, instant{process, float64(r.TPs) / 1e6})
	}
	processes := map[string]bool{}
	for _, w := range want {
		processes[w.process] = true
	}
	if len(processes) != 6 {
		t.Fatalf("checkpoints name events on %d processes %v; the scene needs both planes and the hosts of two nets", len(processes), processes)
	}

	names := map[int64]string{}
	var pids []int64
	var got []instant
	for _, ev := range exportTrace(t, path) {
		switch {
		case ev.Name == "process_name":
			names[ev.Pid] = ev.Args["name"].(string)
		case ev.Cat == "fp":
			pids = append(pids, ev.Pid)
			got = append(got, instant{ts: ev.Ts})
		}
	}
	for i := range got {
		got[i].process = names[pids[i]]
	}
	if len(got) != len(want) {
		t.Fatalf("%d fp instants, want one per event-naming checkpoint: %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("instant %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
