package report

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"pnet/internal/obs"
)

// traceStream builds a small synthetic stream covering every record
// shape the exporter consumes: span-carrying flows, plane/engine
// samples, faults, packets, and profile bins.
func traceStream() *Stream {
	return &Stream{
		Flows: []obs.FlowRecord{
			{ID: 1, TPs: 5_000_000, Transport: "tcp", Src: 0, Dst: 1, Bytes: 30000, FCT: 3e-6,
				Planes: []int32{0, 1},
				Spans: []obs.SpanShare{
					{Component: "serialize", Plane: 0, Ps: 1_000_000},
					{Component: "queue", Plane: 1, Ps: 2_000_000},
				}},
			{ID: 2, TPs: 9_000_000, Transport: "tcp", Src: 1, Dst: 0, Bytes: 1500, FCT: 2e-6},
			{ID: 3, Transport: "tcp", Bytes: 10}, // no TPs: old stream, skipped
		},
		Planes: []obs.PlaneRecord{
			{Net: 0, TPs: 1_000_000, Plane: 0, TxBytes: 1000},
			{Net: 0, TPs: 2_000_000, Plane: 1, TxBytes: 500},
		},
		Engines: []obs.EngineRecord{{Net: 0, TPs: 1_000_000, Events: 10, HeapLen: 3}},
		Faults: []obs.FaultRecord{
			{Net: 0, TPs: 4_000_000, Event: "inject", Target: "link:2", Plane: 1},
			{Net: 0, TPs: 6_000_000, Event: "detect", Target: "plane:1", Plane: -1, LatencySec: 2e-6},
		},
		Packets: []obs.PacketRecord{
			{Net: 0, Ev: "enqueue", TPs: 100_000, Link: 2, Plane: 1, Flow: 1, Seq: 0, Size: 1500},
		},
		Profiles: []obs.ProfileRecord{
			{Net: 0, Kind: "hop", Plane: 0, Events: 42, WallNano: 10, SimPs: 9_000_000},
			{Net: 0, Kind: "timer", Plane: -1, Events: 7, WallNano: 5, SimPs: 9_000_000},
		},
	}
}

// TestExportTraceSchema validates the export against the Chrome Trace
// Event format: the wrapper object, the phase set this exporter emits,
// metadata naming, and non-negative microsecond timestamps.
func TestExportTraceSchema(t *testing.T) {
	tr, err := ExportTrace(traceStream())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
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

// TestExportTraceFlows pins the flow mapping: span children partition
// the flow slice exactly, flows without spans fall back to the FCT, and
// flows without completion timestamps are skipped.
func TestExportTraceFlows(t *testing.T) {
	tr, err := ExportTrace(traceStream())
	if err != nil {
		t.Fatal(err)
	}
	var flow1 *TraceEvent
	var children []TraceEvent
	flowSlices := 0
	for i := range tr.TraceEvents {
		ev := tr.TraceEvents[i]
		if ev.Cat == "flow" {
			flowSlices++
			if ev.Tid == 1 {
				flow1 = &tr.TraceEvents[i]
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

func TestExportTraceEmpty(t *testing.T) {
	if _, err := ExportTrace(&Stream{}); err == nil {
		t.Error("empty stream: want error")
	}
}

// TestExportTracePacketsOnTheirNet: a packet event is an instant on the
// process of its own engine's plane. Two engines' packets on the same
// plane number land on two processes, one per net.
func TestExportTracePacketsOnTheirNet(t *testing.T) {
	tr, err := ExportTrace(&Stream{Packets: []obs.PacketRecord{
		{Type: obs.KindPacket, Net: 0, Ev: "enqueue", TPs: 100_000, Link: 2, Plane: 1, Flow: 1, Size: 1500},
		{Type: obs.KindPacket, Net: 1, Ev: "enqueue", TPs: 100_000, Link: 2, Plane: 1, Flow: 1, Size: 1500},
	}})
	if err != nil {
		t.Fatal(err)
	}
	names := map[int64]string{}
	var pids []int64
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Name == "process_name":
			names[ev.Pid] = ev.Args["name"].(string)
		case ev.Cat == "pkt":
			pids = append(pids, ev.Pid)
		}
	}
	if len(pids) != 2 || pids[0] == pids[1] {
		t.Fatalf("packet instants on processes %v, want two distinct ones", pids)
	}
	for i, pid := range pids {
		if want := fmt.Sprintf("net %d plane 1", i); names[pid] != want {
			t.Errorf("packet of net %d on process %d named %q, want %q", i, pid, names[pid], want)
		}
	}
}
