// Package report turns the telemetry of internal/obs into decisions: it
// reads the JSONL metrics streams and RunSummary files back (reader.go),
// aggregates a run into a RunSummary of the quantities the paper's
// figures plot (summary.go), and compares two summaries with thresholded
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

	"pnet/internal/obs"
)

// Stream holds every record decoded from one metrics JSONL stream,
// bucketed by kind in input order.
type Stream struct {
	Links    []obs.LinkRecord
	Planes   []obs.PlaneRecord
	Engines  []obs.EngineRecord
	Flows    []obs.FlowRecord
	Solvers  []obs.SolverRecord
	Packets  []obs.PacketRecord
	Faults   []obs.FaultRecord
	Profiles []obs.ProfileRecord
	// Fingerprints are determinism-chain epoch checkpoints; FPEvents are
	// per-event journal records from a divergence re-run.
	Fingerprints []obs.FingerprintRecord
	FPEvents     []obs.FingerprintEventRecord
	// Lines counts successfully decoded records (and skipped metric lines).
	Lines int
}

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

// ReadStream decodes a metrics (or trace) JSONL stream line at a time.
// On malformed input it returns everything decoded so far alongside a
// typed error (*ParseError, *UnknownKindError, or ErrEmptyStream), so a
// partially written stream still yields its prefix.
func ReadStream(r io.Reader) (*Stream, error) {
	s := &Stream{}
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
		if err := s.decodeLine(b); err != nil {
			var uk *UnknownKindError
			if errors.As(err, &uk) {
				uk.Line = line
				return s, uk
			}
			return s, &ParseError{Line: line, Truncated: lastLine(sc), Err: err}
		}
	}
	if err := sc.Err(); err != nil {
		return s, &ParseError{Line: line + 1, Err: err}
	}
	if !sawData {
		return s, ErrEmptyStream
	}
	return s, nil
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

func (s *Stream) decodeLine(b []byte) error {
	var h kindHeader
	if err := json.Unmarshal(b, &h); err != nil {
		return err
	}
	switch h.Type {
	case obs.KindLink:
		var r obs.LinkRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		s.Links = append(s.Links, r)
	case obs.KindPlane:
		var r obs.PlaneRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		s.Planes = append(s.Planes, r)
	case obs.KindEngine:
		var r obs.EngineRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		s.Engines = append(s.Engines, r)
	case obs.KindFlow:
		var r obs.FlowRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		for _, sp := range r.Spans {
			if !obs.ValidSpanComponent(sp.Component) {
				return fmt.Errorf("flow %d: unknown span component %q", r.ID, sp.Component)
			}
		}
		s.Flows = append(s.Flows, r)
	case obs.KindSolver:
		var r obs.SolverRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		s.Solvers = append(s.Solvers, r)
	case obs.KindMetric:
		// Written by earlier binaries only; recognised so their streams load.
	case obs.KindPacket:
		var r obs.PacketRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		s.Packets = append(s.Packets, r)
	case obs.KindFault:
		var r obs.FaultRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		s.Faults = append(s.Faults, r)
	case obs.KindProfile:
		var r obs.ProfileRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		if !obs.ValidEventKind(r.Kind) {
			return fmt.Errorf("profile net %d: unknown event kind %q", r.Net, r.Kind)
		}
		s.Profiles = append(s.Profiles, r)
	case obs.KindFingerprint:
		var r obs.FingerprintRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
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
		s.Fingerprints = append(s.Fingerprints, r)
	case obs.KindFPEvent:
		var r obs.FingerprintEventRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		if !obs.ValidEventKind(r.Kind) {
			return fmt.Errorf("fpev net %d epoch %d i %d: unknown event kind %q", r.Net, r.Epoch, r.I, r.Kind)
		}
		if _, err := obs.ParseHash(r.Hash); err != nil {
			return fmt.Errorf("fpev net %d epoch %d i %d: %v", r.Net, r.Epoch, r.I, err)
		}
		s.FPEvents = append(s.FPEvents, r)
	default:
		return &UnknownKindError{Kind: h.Type}
	}
	s.Lines++
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

// LoadRun reads a run from disk in either accepted format: a RunSummary
// JSON written by `pnetbench -report` or `pnetstat summary -o`, or a raw
// metrics JSONL stream, auto-detected by shape. JSONL streams that end in
// a truncated final line still load (the partial prefix is summarized);
// the typed error is returned alongside the summary so callers can warn.
func LoadRun(path string, m Meta) (RunSummary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return RunSummary{}, err
	}
	if isSummaryJSON(b) {
		return readSummaryJSON(path, b)
	}
	st, err := readStreamTolerant(path, b)
	return FromStream(st, m), err
}

// readStreamTolerant decodes b, the contents of path, as a metrics
// stream. A truncated final line is tolerated: a stream cut off mid-write
// keeps its prefix.
func readStreamTolerant(path string, b []byte) (*Stream, error) {
	st, err := ReadStream(bytes.NewReader(b))
	var pe *ParseError
	if err != nil && !(errors.As(err, &pe) && pe.Truncated) {
		return st, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}

// LoadStream reads a raw metrics JSONL stream, for subcommands that
// need record-level data (fingerprint checkpoints, journals, trace
// export) which the aggregate RunSummary no longer carries. A summary
// JSON is rejected with a pointer at the right input; a truncated final
// line is tolerated like LoadRun.
func LoadStream(path string) (*Stream, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if isSummaryJSON(b) {
		return nil, fmt.Errorf("%s: is a RunSummary JSON; this command needs the raw metrics JSONL stream (pnetbench -metrics)", path)
	}
	return readStreamTolerant(path, b)
}

// isSummaryJSON distinguishes one indented RunSummary object from a
// JSONL stream: a stream's first line is a complete object mentioning a
// "type" discriminator, a summary starts with "schema_version".
func isSummaryJSON(b []byte) bool {
	var probe struct {
		SchemaVersion int `json:"schema_version"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return false // multiple JSONL lines fail whole-buffer unmarshal
	}
	return probe.SchemaVersion != 0
}
