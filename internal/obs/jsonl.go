package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// MetricsWriter streams records — samples, flow, solver and fault
// records, profile bins, fingerprint checkpoints, packet events — as
// JSONL. An internal mutex makes it safe for the producers of
// concurrently-running networks to share one stream (individual lines
// never interleave; line order across producers is arrival order). The
// record shapes live in schema.go; every line carries "type", so a stream
// mixing kinds stays self-describing.
type MetricsWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	buf []byte // Packet's line, reused
	err error
}

// NewMetricsWriter builds a writer streaming to w.
func NewMetricsWriter(w io.Writer) *MetricsWriter {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &MetricsWriter{w: bw, enc: json.NewEncoder(bw), buf: make([]byte, 0, 160)}
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

// Packet writes one packet event, htsim-log style:
//
//	{"type":"pkt","net":0,"ev":"enqueue","t_ps":1280,"link":3,"plane":0,"flow":7,"seq":41,"size":1500}
//
// A traced run has one per packet hop, so the line is hand-built into a
// reused buffer instead of going through encoding/json: a packet event
// costs no allocation. TestTraceLineMatchesPacketRecord pins the line to
// the PacketRecord schema.
func (m *MetricsWriter) Packet(r PacketRecord) {
	m.mu.Lock()
	if m.err == nil {
		b := append(m.buf[:0], `{"type":"pkt","net":`...)
		b = strconv.AppendInt(b, int64(r.Net), 10)
		b = append(b, `,"ev":"`...)
		b = append(b, r.Ev...)
		b = append(b, `","t_ps":`...)
		b = strconv.AppendInt(b, r.TPs, 10)
		b = append(b, `,"link":`...)
		b = strconv.AppendInt(b, r.Link, 10)
		b = append(b, `,"plane":`...)
		b = strconv.AppendInt(b, int64(r.Plane), 10)
		b = append(b, `,"flow":`...)
		b = strconv.AppendInt(b, r.Flow, 10)
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, r.Seq, 10)
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, int64(r.Size), 10)
		if r.Trimmed {
			b = append(b, `,"trimmed":true`...)
		}
		m.buf = append(b, '}', '\n')
		_, m.err = m.w.Write(m.buf)
	}
	m.mu.Unlock()
}

// Flush drains the buffer and returns the first error, if any.
func (m *MetricsWriter) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.w.Flush(); err != nil && m.err == nil {
		m.err = err
	}
	return m.err
}
