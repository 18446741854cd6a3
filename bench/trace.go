package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// A span is one call from the harness into a layer's public functions:
// the layer's name, the cell it ran for, when it started and ended
// relative to the start of the pass, and the span that was open when it
// began (-1 for none).
type span struct {
	Name   string
	Cell   string
	Start  time.Duration
	End    time.Duration
	Parent int
}

// tracer records spans and counts for one pass. The zero tracer is off:
// begin returns a no-op and count does nothing, so an untraced pass pays
// one branch per layer call. Spans stay in memory until the benchmark
// ends. It is not safe for concurrent use; every pass runs its layer
// calls from one goroutine.
type tracer struct {
	on     bool
	t0     time.Time
	cell   string
	open   int // index of the innermost open span, -1 for none
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{on: true, t0: time.Now(), open: -1, counts: map[string]float64{}}
}

func noop() {}

// begin opens a span named after the layer entered and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	if !t.on {
		return noop
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Cell: t.cell, Start: time.Since(t.t0), Parent: t.open})
	t.open = i
	return func() {
		t.spans[i].End = time.Since(t.t0)
		t.open = t.spans[i].Parent
	}
}

// count adds v to a named counter, at the layer boundary where the work
// was done.
func (t *tracer) count(name string, v float64) {
	if t.on {
		t.counts[name] += v
	}
}

// mallocs reads the process's cumulative heap-object count, so that
// allocations can be charged to the span they happen in. Off, it is 0.
func (t *tracer) mallocs() float64 {
	if !t.on {
		return 0
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its direct children cover: the time spent in that layer itself.
func selfTimes(spans []span) map[string]float64 {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += (s.End - s.Start - child[i]).Seconds()
	}
	return out
}

// coverage is the share of the pass's wall time that lies inside some
// top-level span: what the layers account for, the rest being harness
// glue between the calls.
func coverage(spans []span, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	var top time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			top += s.End - s.Start
		}
	}
	return top.Seconds() / wall.Seconds()
}

// chromeEvent is one complete ("X") slice of the Chrome trace-event
// format, the format `pnetstat export-trace` writes, so span files open
// in the same viewer (ui.perfetto.dev, chrome://tracing).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat"`
	Ts   float64        `json:"ts"`  // microseconds since pass start
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeSpans writes one workload's traced pass as a Chrome trace.
func writeSpans(path, workload string, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Cat: workload,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]any{"cell": s.Cell, "span": i, "parent": s.Parent},
		}
	}
	b, err := json.MarshalIndent(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
