package report

import (
	"fmt"
	"sort"

	"pnet/internal/sim"
)

// Chrome Trace Event export: convert a telemetry JSONL stream into the
// Trace Event JSON format that Perfetto (ui.perfetto.dev) and
// chrome://tracing load natively, so the span timelines and
// flight-recorder data of PR 6 get a real timeline viewer instead of
// aggregate tables.
//
// Mapping (the ISSUE's contract): dataplanes become processes, flows
// become tracks (threads) under a synthetic "hosts" process, and each
// flow's latency-attribution components become child slices inside its
// flow slice. Plane byte counters and engine heap depth ride along as
// counter tracks; fault lifecycle events and traced packet events become
// instants on their plane's process.
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

// ChromeTrace is the JSON object format of the Trace Event spec (the
// array format is just TraceEvents without the wrapper).
type ChromeTrace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// hostPID is the synthetic process holding per-flow tracks; plane
// processes are assigned from planeBasePID up in (net, plane) order.
const (
	hostPID      = 1
	planeBasePID = 2
)

func psToUs(ps int64) float64 { return float64(ps) / 1e6 }

// ExportTrace converts a decoded telemetry stream into a Chrome trace.
// It needs a stream with flow records (pnetbench -metrics); span-enabled
// runs (-spans) additionally get per-component child slices, profiled
// runs (-spans implies sampling; -metrics with profile on) get
// flight-recorder summary slices, and packet traces (-trace) become
// per-packet instants.
func ExportTrace(st *Stream) (*ChromeTrace, error) {
	if len(st.Flows) == 0 && len(st.Planes) == 0 && len(st.Packets) == 0 && len(st.Profiles) == 0 {
		return nil, fmt.Errorf("report: stream has no flows, plane samples, packets, or profile bins to export")
	}
	tr := &ChromeTrace{DisplayTimeUnit: "ns"}

	// Assign one process per (net, plane) seen anywhere in the stream,
	// in sorted order so the export is deterministic.
	type netPlane struct {
		net   int
		plane int32
	}
	planeSet := map[netPlane]bool{}
	nets := map[int]bool{}
	for _, r := range st.Planes {
		planeSet[netPlane{r.Net, r.Plane}] = true
		nets[r.Net] = true
	}
	for _, r := range st.Links {
		planeSet[netPlane{r.Net, r.Plane}] = true
		nets[r.Net] = true
	}
	for _, r := range st.Packets {
		if r.Plane >= 0 {
			planeSet[netPlane{r.Net, r.Plane}] = true
			nets[r.Net] = true
		}
	}
	for _, r := range st.Profiles {
		if r.Plane >= 0 {
			planeSet[netPlane{r.Net, r.Plane}] = true
			nets[r.Net] = true
		}
	}
	keys := make([]netPlane, 0, len(planeSet))
	for k := range planeSet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].net != keys[j].net {
			return keys[i].net < keys[j].net
		}
		return keys[i].plane < keys[j].plane
	})
	pids := map[netPlane]int64{}
	for i, k := range keys {
		pid := planeBasePID + int64(i)
		pids[k] = pid
		name := fmt.Sprintf("plane %d", k.plane)
		if len(nets) > 1 {
			name = fmt.Sprintf("net %d plane %d", k.net, k.plane)
		}
		tr.TraceEvents = append(tr.TraceEvents, TraceEvent{
			Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name},
		})
	}
	tr.TraceEvents = append(tr.TraceEvents, TraceEvent{
		Name: "process_name", Ph: "M", Pid: hostPID, Args: map[string]any{"name": "hosts (flows)"},
	})

	// Flows: one track (tid = flow ID) per flow under the hosts process,
	// an X slice spanning the flow's lifetime, and child slices for its
	// attribution components. The flow interval is anchored at its
	// completion time (t_ps); its start is completion minus the exact
	// span total when spans are present, else minus the (float) FCT.
	for _, f := range st.Flows {
		if f.TPs <= 0 {
			continue // older stream without completion timestamps
		}
		var spanPs int64
		for _, sp := range f.Spans {
			spanPs += sp.Ps
		}
		durPs := spanPs
		if durPs == 0 {
			durPs = int64(f.FCT * 1e12)
		}
		startPs := f.TPs - durPs
		if startPs < 0 {
			startPs = 0
		}
		tr.TraceEvents = append(tr.TraceEvents, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: hostPID, Tid: f.ID,
			Args: map[string]any{"name": fmt.Sprintf("flow %d (%s)", f.ID, f.Transport)},
		})
		tr.TraceEvents = append(tr.TraceEvents, TraceEvent{
			Name: fmt.Sprintf("flow %d", f.ID), Ph: "X", Cat: "flow",
			Ts: psToUs(startPs), Dur: psToUs(durPs), Pid: hostPID, Tid: f.ID,
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
				tr.TraceEvents = append(tr.TraceEvents, TraceEvent{
					Name: sp.Component, Ph: "X", Cat: "span",
					Ts: psToUs(cursor), Dur: psToUs(sp.Ps), Pid: hostPID, Tid: f.ID,
					Args: map[string]any{"plane": sp.Plane, "ps": sp.Ps, "chronology": "synthetic"},
				})
				cursor += sp.Ps
			}
		}
	}

	// Plane byte counters: cumulative tx_bytes per sample.
	for _, r := range st.Planes {
		tr.TraceEvents = append(tr.TraceEvents, TraceEvent{
			Name: "tx_bytes", Ph: "C", Ts: psToUs(r.TPs),
			Pid: pids[netPlane{r.Net, r.Plane}], Tid: 0,
			Args: map[string]any{"bytes": r.TxBytes},
		})
	}
	// Engine heap depth as a counter on the hosts process.
	for _, r := range st.Engines {
		tr.TraceEvents = append(tr.TraceEvents, TraceEvent{
			Name: fmt.Sprintf("event heap (net %d)", r.Net), Ph: "C",
			Ts: psToUs(r.TPs), Pid: hostPID, Tid: 0,
			Args: map[string]any{"pending": r.HeapLen},
		})
	}

	// Fault lifecycle: instants on the affected plane's process (global
	// scope so Perfetto draws a full-height marker), host process when
	// the fault is not plane-specific.
	for _, r := range st.Faults {
		pid := int64(hostPID)
		if r.Plane >= 0 {
			if p, ok := pids[netPlane{r.Net, r.Plane}]; ok {
				pid = p
			}
		}
		tr.TraceEvents = append(tr.TraceEvents, TraceEvent{
			Name: fmt.Sprintf("fault %s %s", r.Event, r.Target), Ph: "i", Cat: "fault",
			Ts: psToUs(r.TPs), Pid: pid, Tid: 0, S: "g",
			Args: map[string]any{"latency_s": r.LatencySec, "dip_frac": r.DipFrac},
		})
	}

	// Packet events: per-packet instants on the process of the link's
	// plane in the packet's own engine, one track per link. Dense, but
	// Perfetto handles millions of events; -trace-flow keeps exports
	// focused.
	for _, r := range st.Packets {
		pid := int64(hostPID)
		if r.Plane >= 0 {
			if p, ok := pids[netPlane{r.Net, r.Plane}]; ok {
				pid = p
			}
		}
		tr.TraceEvents = append(tr.TraceEvents, TraceEvent{
			Name: fmt.Sprintf("%s flow %d", r.Ev, r.Flow), Ph: "i", Cat: "pkt",
			Ts: psToUs(r.TPs), Pid: pid, Tid: r.Link, S: "t",
			Args: map[string]any{"seq": r.Seq, "size": r.Size},
		})
	}

	// Flight-recorder bins: one full-span slice per (net, kind, plane)
	// summarizing how many events of that kind the plane ran — the
	// aggregate view on the same timeline. Tid is the kind index so the
	// four kinds stack as four rows.
	for _, r := range st.Profiles {
		ki, ok := sim.ParseEventKind(r.Kind)
		if !ok || r.SimPs <= 0 {
			continue
		}
		pid := int64(hostPID)
		if r.Plane >= 0 {
			if p, ok := pids[netPlane{r.Net, r.Plane}]; ok {
				pid = p
			}
		}
		tr.TraceEvents = append(tr.TraceEvents, TraceEvent{
			Name: fmt.Sprintf("%s ×%d", r.Kind, r.Events), Ph: "X", Cat: "profile",
			Ts: 0, Dur: psToUs(r.SimPs), Pid: pid, Tid: 1000 + int64(ki),
			Args: map[string]any{"events": r.Events, "wall_ns": r.WallNano},
		})
	}
	return tr, nil
}
