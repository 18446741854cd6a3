package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// MetricsWriter streams records — samples, flow, solver and fault
// records, fingerprint checkpoints — as JSONL. An internal mutex makes it
// safe for the producers of concurrently-running networks to share one
// stream (individual lines never interleave; line order across producers
// is arrival order). The record shapes live in schema.go; every line
// carries "type", so a stream mixing kinds stays self-describing.
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
