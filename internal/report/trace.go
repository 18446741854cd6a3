package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"pnet/internal/obs"
	"pnet/internal/sim"
)

// Chrome Trace Event export: a telemetry JSONL stream becomes the Trace
// Event JSON that Perfetto (ui.perfetto.dev) and chrome://tracing load, so
// span timelines get a timeline viewer. Each engine's dataplanes become
// processes; its flows become tracks (threads) under its "hosts" process,
// each flow's latency-attribution components child slices of its flow
// slice. Plane byte counters and engine heap depth ride along as counter
// tracks; fault lifecycle events and the events that fingerprint
// checkpoints name become instants on their plane's process.
//
// Timestamps: the trace format's ts/dur are microseconds (doubles), so
// picosecond sim times divide by 1e6. displayTimeUnit "ns" makes
// Perfetto render at nanosecond granularity.
//
// One caveat is recorded in each component slice's args: a flow's span
// shares are exact integer-picosecond totals per (component, plane) but
// carry no ordering, so the child slices partition the flow interval in
// canonical component order — durations are exact, chronology within the
// flow is synthetic.

// TraceEvent is one Trace Event JSON object. Field set covers the
// phases this exporter emits: M (metadata), X (complete slice),
// C (counter), i (instant).
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope: g(lobal)/p(rocess)/t(hread)
	Args map[string]any `json:"args,omitempty"`
}

// netPlane names one Perfetto process: a plane of one engine, or with
// plane -1 (no plane) the engine's hosts, which hold its flows' tracks.
type netPlane struct {
	net   int
	plane int32
}

func psToUs(ps int64) float64 { return float64(ps) / 1e6 }

// ExportTrace converts the metrics stream at path into a Chrome trace
// written to w, and returns the number of trace events. Span-enabled runs
// (-spans) get per-component child slices, fingerprinted ones
// (-fingerprint) an instant per checkpoint: one per event at
// -fingerprint-epoch 1. Each record's events are written as it is
// decoded, so memory does not grow with the stream; the process names
// follow the events. A stream with nothing to export is an error that
// leaves w untouched; one malformed mid-file (a typed ReadStream error)
// leaves w holding an unfinished document.
func ExportTrace(path string, w io.Writer) (int, error) {
	t := &traceWriter{pids: map[netPlane]int64{}, w: bufio.NewWriterSize(w, 1<<16)}
	if err := readStreamPath(path, t); err != nil {
		return 0, err
	}
	if t.n == 0 {
		return 0, fmt.Errorf("report: %s has nothing to export: no timed flows, samples, faults or fingerprint events", path)
	}
	err := t.close() // names the processes, which raises t.n
	return t.n, err
}

// traceWriter is the exporting sink: it encodes each record's events into
// the traceEvents array as the record arrives, numbering processes as
// they are first used.
type traceWriter struct {
	discard
	pids map[netPlane]int64
	w    *bufio.Writer
	n    int // events written
	err  error
}

// emit appends one event to the array, opening the document with the
// first; the first error sticks.
func (t *traceWriter) emit(ev TraceEvent) {
	if t.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	if t.n == 0 {
		t.w.WriteString(`{"traceEvents":[`)
	} else {
		t.w.WriteByte(',')
	}
	t.w.Write(b)
	t.n++
}

// close names the processes, with the net when the stream has more than
// one engine, ends the document and flushes it, returning the first error.
func (t *traceWriter) close() error {
	keys := make([]netPlane, len(t.pids))
	for k, pid := range t.pids {
		keys[pid-1] = k
	}
	multiNet := slices.ContainsFunc(keys, func(k netPlane) bool { return k.net != keys[0].net })
	for i, k := range keys {
		name := fmt.Sprintf("plane %d", k.plane)
		if k.plane < 0 {
			name = "hosts (flows)"
		}
		if multiNet {
			name = fmt.Sprintf("net %d %s", k.net, name)
		}
		t.emit(TraceEvent{Name: "process_name", Ph: "M", Pid: int64(i + 1), Args: map[string]any{"name": name}})
	}
	t.w.WriteString(`],"displayTimeUnit":"ns"}` + "\n")
	if err := t.w.Flush(); t.err == nil {
		t.err = err
	}
	return t.err
}

// pid is the process of plane in engine net, or with plane -1 (none) of
// the engine's hosts.
func (t *traceWriter) pid(net int, plane int32) int64 {
	k := netPlane{net, max(plane, -1)}
	p, ok := t.pids[k]
	if !ok {
		p = int64(len(t.pids) + 1)
		t.pids[k] = p
	}
	return p
}

// Flow: one track (tid = flow ID) per flow under its engine's hosts
// process, an X slice spanning the flow's lifetime, and child slices for
// its attribution components. The flow interval is anchored at its
// completion time (t_ps); its start is completion minus the exact span
// total when spans are present, else minus the (float) FCT.
func (t *traceWriter) Flow(f obs.FlowRecord) {
	if f.TPs <= 0 {
		return // older stream without completion timestamps
	}
	var durPs int64
	for _, sp := range f.Spans {
		durPs += sp.Ps
	}
	if durPs == 0 {
		durPs = int64(f.FCT * 1e12)
	}
	startPs := max(f.TPs-durPs, 0)
	pid := t.pid(f.Net, -1)
	t.emit(TraceEvent{
		Name: "thread_name", Ph: "M", Pid: pid, Tid: f.ID,
		Args: map[string]any{"name": fmt.Sprintf("flow %d (%s)", f.ID, f.Transport)},
	})
	t.emit(TraceEvent{
		Name: fmt.Sprintf("flow %d", f.ID), Ph: "X", Cat: "flow",
		Ts: psToUs(startPs), Dur: psToUs(durPs), Pid: pid, Tid: f.ID,
		Args: map[string]any{
			"bytes": f.Bytes, "fct_s": f.FCT, "retransmits": f.Retransmits,
			"src": f.Src, "dst": f.Dst, "planes": f.Planes,
		},
	})
	// Components partition [start, end) in canonical order: exact
	// durations, synthetic chronology.
	cursor := startPs
	for _, name := range sim.SpanComponentNames() {
		for _, sp := range f.Spans {
			if sp.Component != name || sp.Ps <= 0 {
				continue
			}
			t.emit(TraceEvent{
				Name: sp.Component, Ph: "X", Cat: "span",
				Ts: psToUs(cursor), Dur: psToUs(sp.Ps), Pid: pid, Tid: f.ID,
				Args: map[string]any{"plane": sp.Plane, "ps": sp.Ps, "chronology": "synthetic"},
			})
			cursor += sp.Ps
		}
	}
}

// Plane: cumulative tx_bytes per sample, a counter on the plane.
func (t *traceWriter) Plane(r obs.PlaneRecord) {
	t.emit(TraceEvent{
		Name: "tx_bytes", Ph: "C", Ts: psToUs(r.TPs), Pid: t.pid(r.Net, r.Plane),
		Args: map[string]any{"bytes": r.TxBytes},
	})
}

// Engine: heap depth, a counter on the engine's hosts.
func (t *traceWriter) Engine(r obs.EngineRecord) {
	t.emit(TraceEvent{
		Name: fmt.Sprintf("event heap (net %d)", r.Net), Ph: "C",
		Ts: psToUs(r.TPs), Pid: t.pid(r.Net, -1),
		Args: map[string]any{"pending": r.HeapLen},
	})
}

// Fault: an instant on the affected plane's process (global scope, so
// Perfetto draws a full-height marker), on the hosts when the fault is
// not plane-specific.
func (t *traceWriter) Fault(r obs.FaultRecord) {
	t.emit(TraceEvent{
		Name: fmt.Sprintf("fault %s %s", r.Event, r.Target), Ph: "i", Cat: "fault",
		Ts: psToUs(r.TPs), Pid: t.pid(r.Net, r.Plane), S: "g",
		Args: map[string]any{"latency_s": r.LatencySec, "dip_frac": r.DipFrac},
	})
}

// Fingerprint: a checkpoint that names the event closing its epoch (every
// one but the final partial one) is an instant at that event: on the
// process of its plane in its own engine, one track per link, or for a
// timer on the engine's hosts. At -fingerprint-epoch 1 that is every event
// of the run; Perfetto handles millions.
func (t *traceWriter) Fingerprint(r obs.FingerprintRecord) {
	if r.Final {
		return
	}
	t.emit(TraceEvent{
		Name: fmt.Sprintf("%s flow %d", r.Kind, r.Flow), Ph: "i", Cat: "fp",
		Ts: psToUs(r.TPs), Pid: t.pid(r.Net, r.Plane), Tid: r.Link, S: "t",
		Args: map[string]any{"events": r.Events, "seq": r.Seq, "size": r.Size},
	})
}
