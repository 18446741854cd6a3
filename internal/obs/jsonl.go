package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"sync"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

// JSONLSink is a sim.Tracer that streams packet lifecycle events as one
// JSON object per line, htsim-log style:
//
//	{"type":"pkt","ev":"enqueue","t_ps":1280,"link":3,"plane":0,"flow":7,"seq":41,"size":1500}
//
// "ev" is one of enqueue | drop | trim | deliver | blackhole; "t_ps" is the sim
// timestamp in picoseconds; "trimmed":true is added for packets whose
// payload was already cut to a header. Lines are hand-built into a
// reused buffer so tracing costs no per-event allocations beyond the
// buffered writes themselves.
type JSONLSink struct {
	eng *sim.Engine
	g   *graph.Graph
	w   *bufio.Writer
	buf []byte

	// mu, when set, serializes writes to w — required when several
	// networks' sinks share one buffered writer and their engines run on
	// different goroutines (the parallel sweep). Each sink still builds
	// its line in a private buf outside the lock. Nil for the
	// single-network, single-goroutine case.
	mu *sync.Mutex

	// only, when non-empty, restricts the stream to the listed flow IDs;
	// other packets' events return before any line is built (a linear
	// scan — the list is a handful of hand-picked flows).
	only []int64

	err error
}

// NewJSONLSink builds a sink writing to w. Call Flush when the
// simulation is done. If w is already a *bufio.Writer it is used
// directly — sinks for different networks in one run must share one
// buffer, or their independent flushes would interleave mid-line.
func NewJSONLSink(w io.Writer, eng *sim.Engine, g *graph.Graph) *JSONLSink {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriterSize(w, 1<<16)
	}
	return &JSONLSink{eng: eng, g: g, w: bw, buf: make([]byte, 0, 160)}
}

// PacketEvent implements sim.Tracer.
func (s *JSONLSink) PacketEvent(ev sim.TraceEvent, p *sim.Packet, link graph.LinkID) {
	if len(s.only) > 0 {
		keep := false
		for _, id := range s.only {
			if id == p.FlowID {
				keep = true
				break
			}
		}
		if !keep {
			return
		}
	}
	b := s.buf[:0]
	b = append(b, `{"type":"pkt","ev":"`...)
	b = append(b, ev.String()...)
	b = append(b, `","t_ps":`...)
	b = strconv.AppendInt(b, int64(s.eng.Now()), 10)
	b = append(b, `,"link":`...)
	b = strconv.AppendInt(b, int64(link), 10)
	b = append(b, `,"plane":`...)
	b = strconv.AppendInt(b, int64(s.g.Link(link).Plane), 10)
	b = append(b, `,"flow":`...)
	b = strconv.AppendInt(b, p.FlowID, 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, p.Seq, 10)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(p.Size), 10)
	if p.Trimmed {
		b = append(b, `,"trimmed":true`...)
	}
	b = append(b, '}', '\n')
	s.buf = b
	if s.mu != nil {
		s.mu.Lock()
	}
	if _, err := s.w.Write(b); err != nil && s.err == nil {
		s.err = err
	}
	if s.mu != nil {
		s.mu.Unlock()
	}
}

// Flush drains the buffer and returns the first write error, if any.
func (s *JSONLSink) Flush() error {
	if s.mu != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// MetricsWriter streams metric records — samples, flow, solver and fault
// records, profile bins, fingerprint checkpoints — as JSONL. Unlike the
// packet sink this is not a hot path, so records go through
// encoding/json, and an internal mutex makes it safe for the samplers of
// concurrently-running networks to share one stream (individual lines
// never interleave; line order across producers is arrival order). The
// record shapes live in schema.go; every line carries "type", so a stream
// mixing kinds stays self-describing.
type MetricsWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewMetricsWriter builds a writer streaming to w.
func NewMetricsWriter(w io.Writer) *MetricsWriter {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &MetricsWriter{w: bw, enc: json.NewEncoder(bw)}
}

func (m *MetricsWriter) write(v any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		m.err = m.enc.Encode(v)
	}
}

// MetricsWriter implements Sink: one line per record.
func (m *MetricsWriter) Link(r LinkRecord)               { m.write(r) }
func (m *MetricsWriter) Plane(r PlaneRecord)             { m.write(r) }
func (m *MetricsWriter) Engine(r EngineRecord)           { m.write(r) }
func (m *MetricsWriter) Flow(r FlowRecord)               { m.write(r) }
func (m *MetricsWriter) Solver(r SolverRecord)           { m.write(r) }
func (m *MetricsWriter) Fault(r FaultRecord)             { m.write(r) }
func (m *MetricsWriter) Profile(r ProfileRecord)         { m.write(r) }
func (m *MetricsWriter) Fingerprint(r FingerprintRecord) { m.write(r) }

// Flush drains the buffer and returns the first error, if any.
func (m *MetricsWriter) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.w.Flush(); err != nil && m.err == nil {
		m.err = err
	}
	return m.err
}
