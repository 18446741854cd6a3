// Package report turns the telemetry of internal/obs into decisions. Its
// reader decodes a JSONL metrics stream line by line into an obs.Sink
// (reader.go), and every view of a run is a sink that keeps only what it
// needs: the Aggregator reduces a run into a RunSummary of what the
// paper's figures plot (summary.go, attr.go), divergence one hash per
// checkpoint (divergence.go), the trace exporter no record (trace.go). Diff
// compares two summaries (diff.go). cmd/pnetstat is the CLI over it all.
package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"reflect"

	"pnet/internal/obs"
	"pnet/internal/sim"
)

// discard drops every record; a narrow sink embeds it.
type discard struct{}

func (discard) Link(obs.LinkRecord)               {}
func (discard) Plane(obs.PlaneRecord)             {}
func (discard) Engine(obs.EngineRecord)           {}
func (discard) Flow(obs.FlowRecord)               {}
func (discard) Solver(obs.SolverRecord)           {}
func (discard) Fault(obs.FaultRecord)             {}
func (discard) Fingerprint(obs.FingerprintRecord) {}

// ErrEmptyStream reports a stream with no records at all — usually a
// run that never attached telemetry, which callers should distinguish
// from a run whose metrics are legitimately zero.
var ErrEmptyStream = errors.New("report: empty telemetry stream")

// ParseError reports a line that could not be decoded. Truncated marks
// a final line with no trailing newline — the expected shape of a
// stream cut off mid-write, which callers typically tolerate.
type ParseError struct {
	Line      int // 1-based line number
	Truncated bool
	Err       error
}

func (e *ParseError) Error() string {
	if e.Truncated {
		return fmt.Sprintf("report: truncated final line %d: %v", e.Line, e.Err)
	}
	return fmt.Sprintf("report: bad line %d: %v", e.Line, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

// UnknownKindError reports a line whose "type" field names a record
// kind this reader does not know — a schema mismatch between writer
// and reader versions.
type UnknownKindError struct {
	Line int
	Kind string
}

func (e *UnknownKindError) Error() string {
	return fmt.Sprintf("report: line %d: unknown record kind %q", e.Line, e.Kind)
}

// ReadStream decodes a metrics JSONL stream a line at a time and hands
// each record to sink, validated. On malformed input it stops with a typed
// error (*ParseError, *UnknownKindError, or ErrEmptyStream); the sink has
// then received every record before the bad line, so a partially written
// stream still yields its prefix.
func ReadStream(r io.Reader, sink obs.Sink) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	sawData := false
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		sawData = true
		if err := decodeLine(b, sink); err != nil {
			var uk *UnknownKindError
			if errors.As(err, &uk) {
				uk.Line = line
				return uk
			}
			// A failing line at input end is the best proxy for one cut off
			// mid-write: the scanner strips a trailing newline either way.
			return &ParseError{Line: line, Truncated: !sc.Scan(), Err: err}
		}
	}
	if err := sc.Err(); err != nil {
		return &ParseError{Line: line + 1, Err: err}
	}
	if !sawData {
		return ErrEmptyStream
	}
	return nil
}

// kindHeader decodes only the discriminator, for a line that does not
// name its kind up front.
type kindHeader struct {
	Type string `json:"type"`
}

// leadingKind returns the kind a line names in the {"type":"<kind>" prefix
// that MetricsWriter starts every line with, and false for a line that
// does not start so.
func leadingKind(b []byte) (string, bool) {
	rest, ok := bytes.CutPrefix(b, []byte(`{"type":"`))
	kind, _, found := bytes.Cut(rest, []byte(`"`))
	return string(kind), ok && found
}

// errOtherKind is a record whose own "type" is not the kind it was decoded
// as: its line repeats the key, and JSON's last one wins.
var errOtherKind = errors.New("report: record of another kind")

// emit decodes b as one record of kind R, checks that it is of kind and
// with valid (nil: nothing to check beyond the JSON), and hands it to the
// sink method to. Every record's Type field holds its "type".
func emit[R any](b []byte, kind string, valid func(*R) error, to func(R)) error {
	var r R
	if err := json.Unmarshal(b, &r); err != nil {
		return err
	}
	if reflect.ValueOf(&r).Elem().FieldByName("Type").String() != kind {
		return errOtherKind
	}
	if valid != nil {
		if err := valid(&r); err != nil {
			return err
		}
	}
	to(r)
	return nil
}

// decodeLine decodes and validates one line and hands the record to sink.
// A line that starts with the kind it holds, as every line MetricsWriter
// writes does, is decoded once. Any other (no such prefix, an unknown
// kind, a repeated "type" key, a bad record) is decoded for its "type"
// first and then as that kind, so its record or error does not depend on
// the path it took.
func decodeLine(b []byte, sink obs.Sink) error {
	if kind, ok := leadingKind(b); ok && decodeKind(kind, b, sink) == nil {
		return nil
	}
	var h kindHeader
	if err := json.Unmarshal(b, &h); err != nil {
		return err
	}
	return decodeKind(h.Type, b, sink)
}

// decodeKind decodes b as a record of kind and hands it to sink.
func decodeKind(kind string, b []byte, sink obs.Sink) error {
	switch kind {
	case obs.KindLink:
		return emit(b, kind, nil, sink.Link)
	case obs.KindPlane:
		return emit(b, kind, nil, sink.Plane)
	case obs.KindEngine:
		return emit(b, kind, nil, sink.Engine)
	case obs.KindFlow:
		return emit(b, kind, validFlow, sink.Flow)
	case obs.KindSolver:
		return emit(b, kind, nil, sink.Solver)
	case obs.KindFault:
		return emit(b, kind, nil, sink.Fault)
	case obs.KindFingerprint:
		return emit(b, kind, validFingerprint, sink.Fingerprint)
	}
	return &UnknownKindError{Kind: kind}
}

func validFlow(r *obs.FlowRecord) error {
	for _, sp := range r.Spans {
		if _, ok := sim.ParseSpanComponent(sp.Component); !ok {
			return fmt.Errorf("flow %d: unknown span component %q", r.ID, sp.Component)
		}
	}
	return nil
}

func validFingerprint(r *obs.FingerprintRecord) error {
	if _, err := obs.ParseHash(r.Hash); err != nil {
		return fmt.Errorf("fingerprint net %d epoch %d: %v", r.Net, r.Epoch, err)
	}
	if r.EpochEvents <= 0 {
		return fmt.Errorf("fingerprint net %d epoch %d: epoch_events %d, want > 0", r.Net, r.Epoch, r.EpochEvents)
	}
	if _, ok := sim.ParseEventKind(r.Kind); r.Kind != "" && !ok {
		return fmt.Errorf("fingerprint net %d epoch %d: unknown event kind %q", r.Net, r.Epoch, r.Kind)
	}
	return nil
}

// readSummaryJSON decodes the contents b of the summary file at path.
func readSummaryJSON(path string, b []byte) (RunSummary, error) {
	var s RunSummary
	if err := json.Unmarshal(b, &s); err != nil {
		return RunSummary{}, fmt.Errorf("report: %s: %w", path, err)
	}
	if s.SchemaVersion == 0 {
		return RunSummary{}, fmt.Errorf("report: %s: not a RunSummary (no schema_version)", path)
	}
	if s.SchemaVersion > SchemaVersion {
		return RunSummary{}, fmt.Errorf("report: %s: schema_version %d newer than this binary's %d",
			path, s.SchemaVersion, SchemaVersion)
	}
	return s, nil
}

// openRun opens the run file at path and reports whether it holds a
// RunSummary JSON rather than a JSONL stream: a summary's first JSON value
// is the whole object and carries "schema_version"; a stream's is its
// first line, a record with a "type". Only that first value is read, so
// a stream of any size costs a buffer to tell apart.
func openRun(path string) (f *os.File, isSummary bool, err error) {
	if f, err = os.Open(path); err != nil {
		return nil, false, err
	}
	var probe struct {
		SchemaVersion int `json:"schema_version"`
	}
	isSummary = json.NewDecoder(f).Decode(&probe) == nil && probe.SchemaVersion != 0
	if _, err = f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, false, err
	}
	return f, isSummary, nil
}

// readRun decodes the run file at path into sink when it is a metrics
// stream, tolerating a truncated final line (a stream cut off mid-write
// keeps its prefix), and returns its contents when it is a RunSummary
// JSON. A file that cannot be opened or read is a *fs.PathError.
func readRun(path string, sink obs.Sink) (summary []byte, err error) {
	f, isSummary, err := openRun(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if isSummary {
		if summary, err = io.ReadAll(f); err != nil {
			return nil, err
		}
		return summary, nil
	}
	var pe *ParseError
	if err := ReadStream(f, sink); err != nil && !(errors.As(err, &pe) && pe.Truncated) {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return nil, nil
}

// LoadRun reads a run from disk in either accepted format: a RunSummary
// JSON written by `pnetbench -report`, or a raw metrics JSONL stream,
// auto-detected by shape. A stream is decoded straight into an
// Aggregator, so memory does not grow with its sample lines. One that
// ends in a truncated final line still loads; on any other malformed line
// the typed error is returned alongside the summary of the prefix. A file
// that cannot be opened or read returns RunSummary{} with the error.
func LoadRun(path string, m Meta) (RunSummary, error) {
	aggr := NewAggregator()
	b, err := readRun(path, aggr)
	var pe *fs.PathError
	switch {
	case b != nil:
		return readSummaryJSON(path, b)
	case errors.As(err, &pe):
		return RunSummary{}, err
	}
	return aggr.Summarize(m), err
}

// readStreamPath decodes the metrics stream at path into sink, for the
// views that need records a RunSummary does not carry: a summary JSON is
// rejected with a pointer at the right input.
func readStreamPath(path string, sink obs.Sink) error {
	b, err := readRun(path, sink)
	if b != nil {
		return fmt.Errorf("%s: is a RunSummary JSON; this command needs the raw metrics JSONL stream (pnetbench -metrics)", path)
	}
	return err
}
