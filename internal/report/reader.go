// Package report turns the telemetry of internal/obs into decisions. Its
// reader decodes a JSONL metrics stream line by line into an obs.Sink
// (reader.go), the same interface the live producers write to; the
// Aggregator is the sink that reduces a run into a RunSummary of the
// quantities the paper's figures plot (summary.go, attr.go), and Stream
// the one that keeps every record for the subcommands that need them
// (divergence.go, trace.go). Diff compares two summaries with thresholded
// per-metric deltas (diff.go). cmd/pnetstat is the CLI over all of it.
package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"pnet/internal/obs"
)

// Stream is the retaining obs.Sink: it keeps every record it is handed,
// bucketed by kind in arrival order. `pnetstat divergence` and
// `export-trace` read files into one, since they need the records
// themselves; memory is proportional to the file. It is safe for
// concurrent producers, so a test can also set one as a collector's Sink
// and read the fields once the run is over.
type Stream struct {
	mu       sync.Mutex
	Links    []obs.LinkRecord
	Planes   []obs.PlaneRecord
	Engines  []obs.EngineRecord
	Flows    []obs.FlowRecord
	Solvers  []obs.SolverRecord
	Faults   []obs.FaultRecord
	Profiles []obs.ProfileRecord
	// Fingerprints are determinism-chain epoch checkpoints.
	Fingerprints []obs.FingerprintRecord
	// Packets are packet lifecycle events (a traced run).
	Packets []obs.PacketRecord
}

// keep appends r to one of s's buckets under its lock.
func keep[R any](s *Stream, bucket *[]R, r R) {
	s.mu.Lock()
	*bucket = append(*bucket, r)
	s.mu.Unlock()
}

func (s *Stream) Link(r obs.LinkRecord)               { keep(s, &s.Links, r) }
func (s *Stream) Plane(r obs.PlaneRecord)             { keep(s, &s.Planes, r) }
func (s *Stream) Engine(r obs.EngineRecord)           { keep(s, &s.Engines, r) }
func (s *Stream) Flow(r obs.FlowRecord)               { keep(s, &s.Flows, r) }
func (s *Stream) Solver(r obs.SolverRecord)           { keep(s, &s.Solvers, r) }
func (s *Stream) Fault(r obs.FaultRecord)             { keep(s, &s.Faults, r) }
func (s *Stream) Profile(r obs.ProfileRecord)         { keep(s, &s.Profiles, r) }
func (s *Stream) Fingerprint(r obs.FingerprintRecord) { keep(s, &s.Fingerprints, r) }
func (s *Stream) Packet(r obs.PacketRecord)           { keep(s, &s.Packets, r) }

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
			return &ParseError{Line: line, Truncated: lastLine(sc), Err: err}
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

// lastLine reports whether the scanner is at input end — i.e. the
// failing line was the final one. bufio.Scanner strips the trailing
// newline either way, so "final line" is the best proxy for "cut off
// mid-write" without re-reading the source.
func lastLine(sc *bufio.Scanner) bool { return !sc.Scan() }

// kindHeader decodes only the discriminator, cheap relative to a full
// record decode.
type kindHeader struct {
	Type string `json:"type"`
}

// emit decodes b as one record of kind R, checks it with valid (nil:
// nothing to check beyond the JSON), and hands it to the sink method to.
func emit[R any](b []byte, valid func(*R) error, to func(R)) error {
	var r R
	if err := json.Unmarshal(b, &r); err != nil {
		return err
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
func decodeLine(b []byte, sink obs.Sink) error {
	var h kindHeader
	if err := json.Unmarshal(b, &h); err != nil {
		return err
	}
	switch h.Type {
	case obs.KindLink:
		return emit(b, nil, sink.Link)
	case obs.KindPlane:
		return emit(b, nil, sink.Plane)
	case obs.KindEngine:
		return emit(b, nil, sink.Engine)
	case obs.KindFlow:
		return emit(b, validFlow, sink.Flow)
	case obs.KindSolver:
		return emit(b, nil, sink.Solver)
	case obs.KindFault:
		return emit(b, nil, sink.Fault)
	case obs.KindProfile:
		return emit(b, validProfile, sink.Profile)
	case obs.KindFingerprint:
		return emit(b, validFingerprint, sink.Fingerprint)
	case obs.KindPacket:
		return emit(b, nil, sink.Packet)
	}
	return &UnknownKindError{Kind: h.Type}
}

func validFlow(r *obs.FlowRecord) error {
	for _, sp := range r.Spans {
		if !obs.ValidSpanComponent(sp.Component) {
			return fmt.Errorf("flow %d: unknown span component %q", r.ID, sp.Component)
		}
	}
	return nil
}

func validProfile(r *obs.ProfileRecord) error {
	if !obs.ValidEventKind(r.Kind) {
		return fmt.Errorf("profile net %d: unknown event kind %q", r.Net, r.Kind)
	}
	return nil
}

func validFingerprint(r *obs.FingerprintRecord) error {
	if _, err := obs.ParseHash(r.Hash); err != nil {
		return fmt.Errorf("fingerprint net %d epoch %d: %v", r.Net, r.Epoch, err)
	}
	if _, err := obs.ParseHash(r.Host); err != nil {
		return fmt.Errorf("fingerprint net %d epoch %d: %v", r.Net, r.Epoch, err)
	}
	for _, p := range r.Planes {
		if _, err := obs.ParseHash(p.Hash); err != nil {
			return fmt.Errorf("fingerprint net %d epoch %d plane %d: %v", r.Net, r.Epoch, p.Plane, err)
		}
	}
	if r.EpochEvents <= 0 {
		return fmt.Errorf("fingerprint net %d epoch %d: epoch_events %d, want > 0", r.Net, r.Epoch, r.EpochEvents)
	}
	if r.Kind != "" && !obs.ValidEventKind(r.Kind) {
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

// readStreamFile decodes the metrics stream f, the file at path, into
// sink. A truncated final line is tolerated: a stream cut off mid-write
// keeps its prefix.
func readStreamFile(path string, f *os.File, sink obs.Sink) error {
	err := ReadStream(f, sink)
	var pe *ParseError
	if err != nil && !(errors.As(err, &pe) && pe.Truncated) {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// LoadRun reads a run from disk in either accepted format: a RunSummary
// JSON written by `pnetbench -report` or `pnetstat summary -o`, or a raw
// metrics JSONL stream, auto-detected by shape. A stream is decoded
// straight into an Aggregator, so memory does not grow with its sample
// lines. One that ends in a truncated final line still loads; on any
// other malformed line the typed error is returned alongside the summary
// of the prefix.
func LoadRun(path string, m Meta) (RunSummary, error) {
	f, isSummary, err := openRun(path)
	if err != nil {
		return RunSummary{}, err
	}
	defer f.Close()
	if isSummary {
		b, err := io.ReadAll(f)
		if err != nil {
			return RunSummary{}, err
		}
		return readSummaryJSON(path, b)
	}
	aggr := NewAggregator()
	err = readStreamFile(path, f, aggr)
	return aggr.Summarize(m), err
}

// LoadStream reads a raw metrics JSONL stream and keeps every record,
// for subcommands that need record-level data (fingerprint checkpoints,
// packet events) which the aggregate RunSummary does not carry.
// A summary JSON is rejected with a pointer at the right input; a
// truncated final line is tolerated like LoadRun.
func LoadStream(path string) (*Stream, error) {
	f, isSummary, err := openRun(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if isSummary {
		return nil, fmt.Errorf("%s: is a RunSummary JSON; this command needs the raw metrics JSONL stream (pnetbench -metrics)", path)
	}
	st := &Stream{}
	return st, readStreamFile(path, f, st)
}
