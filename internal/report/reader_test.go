package report

import (
	"errors"
	"strings"
	"testing"

	"pnet/internal/obs"
)

const goodStream = `{"type":"engine","net":0,"t_ps":10000000,"events":100,"heap":5,"wall_ns":2000}
{"type":"link","net":0,"t_ps":10000000,"link":3,"plane":1,"queue_bytes":3000,"util":0.5,"tx_bytes":150000,"drops":2}
{"type":"plane","net":0,"t_ps":10000000,"plane":1,"tx_bytes":150000}
{"type":"flow","id":7,"transport":"tcp","src":1,"dst":2,"bytes":1000000,"fct_s":0.002,"retransmits":1,"subflows":4,"planes":[0,1]}
{"type":"solver","exp":"fig6c","solver":"gk-fixed","k":8,"lambda":0.9,"phases":12,"iterations":400,"attempts":2,"wall_s":0.05}
{"type":"fp","net":0,"epoch":41,"events":42,"t_ps":1280,"epoch_events":1,"hash":"0123456789abcdef","kind":"hop","link":3,"flow":7,"seq":41,"size":1500}
`

// recorder is a test sink that keeps every record it is handed, by kind,
// in arrival order.
type recorder struct {
	Links        []obs.LinkRecord
	Planes       []obs.PlaneRecord
	Engines      []obs.EngineRecord
	Flows        []obs.FlowRecord
	Solvers      []obs.SolverRecord
	Faults       []obs.FaultRecord
	Fingerprints []obs.FingerprintRecord
}

func (s *recorder) Link(r obs.LinkRecord)               { s.Links = append(s.Links, r) }
func (s *recorder) Plane(r obs.PlaneRecord)             { s.Planes = append(s.Planes, r) }
func (s *recorder) Engine(r obs.EngineRecord)           { s.Engines = append(s.Engines, r) }
func (s *recorder) Flow(r obs.FlowRecord)               { s.Flows = append(s.Flows, r) }
func (s *recorder) Solver(r obs.SolverRecord)           { s.Solvers = append(s.Solvers, r) }
func (s *recorder) Fault(r obs.FaultRecord)             { s.Faults = append(s.Faults, r) }
func (s *recorder) Fingerprint(r obs.FingerprintRecord) { s.Fingerprints = append(s.Fingerprints, r) }

func TestReadStreamAllKinds(t *testing.T) {
	s := &recorder{}
	if err := ReadStream(strings.NewReader(goodStream), s); err != nil {
		t.Fatal(err)
	}
	if len(s.Engines) != 1 || len(s.Links) != 1 || len(s.Planes) != 1 ||
		len(s.Flows) != 1 || len(s.Solvers) != 1 || len(s.Fingerprints) != 1 {
		t.Fatalf("bucket counts = %+v", s)
	}
	if s.Flows[0].FCT != 0.002 || s.Flows[0].Planes[1] != 1 {
		t.Errorf("flow = %+v", s.Flows[0])
	}
	if s.Links[0].Util != 0.5 || s.Links[0].Plane != 1 {
		t.Errorf("link = %+v", s.Links[0])
	}
	if fp := s.Fingerprints[0]; fp.Kind != "hop" || fp.Plane != 0 || fp.Link != 3 || fp.Size != 1500 || fp.EpochEvents != 1 {
		t.Errorf("fingerprint = %+v", fp)
	}
}

// TestReadStreamTruncatedFinalLine: a stream cut off mid-write must
// yield every complete record plus a typed *ParseError with Truncated
// set — not a panic, not silent loss.
func TestReadStreamTruncatedFinalLine(t *testing.T) {
	cut := goodStream[:len(goodStream)-30] // mid final record, no newline
	s := &recorder{}
	err := ReadStream(strings.NewReader(cut), s)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ParseError", err)
	}
	if !pe.Truncated {
		t.Errorf("ParseError.Truncated = false for cut-off final line: %v", pe)
	}
	if pe.Line != 6 {
		t.Errorf("ParseError.Line = %d, want 6", pe.Line)
	}
	if len(s.Flows) != 1 || len(s.Solvers) != 1 || len(s.Engines) != 1 || len(s.Links) != 1 || len(s.Planes) != 1 || len(s.Fingerprints) != 0 {
		t.Errorf("partial stream lost records: %+v", s)
	}
}

// TestReadStreamOldFingerprintKeys: a checkpoint written while engines
// kept a host chain and per-plane chains beside the global one still
// loads, its extra keys ignored, and folds into the summary by its hash.
func TestReadStreamOldFingerprintKeys(t *testing.T) {
	in := `{"type":"fp","net":0,"epoch":0,"events":64,"t_ps":9,"epoch_events":64,"hash":"0123456789abcdef","host":"fedcba9876543210","planes":[{"plane":0,"hash":"00000000000000ff"}],"kind":"hop","link":3,"flow":2,"seq":5,"size":1500}` + "\n"
	aggr := NewAggregator()
	if err := ReadStream(strings.NewReader(in), aggr); err != nil {
		t.Fatal(err)
	}
	want := FingerprintSummary{Engines: 1, EpochEvents: 64, Events: 64, Global: "0123456789abcdef"}
	if fp := aggr.Summarize(Meta{}).Fingerprint; fp == nil || *fp != want {
		t.Errorf("fingerprint summary = %+v, want %+v", fp, want)
	}
}

// TestReadStreamUnknownKind: a record kind from a future writer must
// surface as a typed *UnknownKindError with the decoded prefix intact.
func TestReadStreamUnknownKind(t *testing.T) {
	in := goodStream + `{"type":"warp","coil":9}` + "\n"
	s := &recorder{}
	err := ReadStream(strings.NewReader(in), s)
	var uk *UnknownKindError
	if !errors.As(err, &uk) {
		t.Fatalf("err = %v, want *UnknownKindError", err)
	}
	if uk.Kind != "warp" || uk.Line != 7 {
		t.Errorf("UnknownKindError = %+v", uk)
	}
	if len(s.Fingerprints) != 1 {
		t.Errorf("partial stream lost the record before the unknown one: %+v", s)
	}
}

// TestReadStreamTypeKeyAnywhere: a line is read by its "type" wherever
// the key stands, and where a line repeats it the last one counts, as in
// any JSON decode of the line; a line that starts with a kind it does not
// hold is neither misread nor dropped.
func TestReadStreamTypeKeyAnywhere(t *testing.T) {
	s := &recorder{}
	in := `{"id":7,"type":"flow","fct_s":0.002}` + "\n" +
		`{"type":"flow","net":1,"t_ps":5,"plane":2,"tx_bytes":9,"type":"plane"}` + "\n"
	if err := ReadStream(strings.NewReader(in), s); err != nil {
		t.Fatal(err)
	}
	if len(s.Flows) != 1 || s.Flows[0].ID != 7 || s.Flows[0].FCT != 0.002 {
		t.Errorf("flows = %+v, want flow 7", s.Flows)
	}
	if len(s.Planes) != 1 || s.Planes[0].Plane != 2 || s.Planes[0].TxBytes != 9 {
		t.Errorf("planes = %+v, want plane 2's record", s.Planes)
	}
	var uk *UnknownKindError
	if err := ReadStream(strings.NewReader(`{"type":"fp","type":"warp"}`+"\n"), s); !errors.As(err, &uk) || uk.Kind != "warp" || uk.Line != 1 {
		t.Errorf("err = %v, want an UnknownKindError for kind \"warp\" on line 1", err)
	}
}

func TestReadStreamEmpty(t *testing.T) {
	for _, in := range []string{"", "\n\n  \n"} {
		if err := ReadStream(strings.NewReader(in), &recorder{}); !errors.Is(err, ErrEmptyStream) {
			t.Fatalf("ReadStream(%q) err = %v, want ErrEmptyStream", in, err)
		}
	}
}

// TestReadStreamGarbageMidFile: corruption before the end is a
// *ParseError without Truncated — the caller should not mistake it for
// a benign cut-off.
func TestReadStreamGarbageMidFile(t *testing.T) {
	in := `{"type":"flow","id":1,"fct_s":0.1}` + "\n" + `not json at all` + "\n" +
		`{"type":"flow","id":2,"fct_s":0.2}` + "\n"
	s := &recorder{}
	err := ReadStream(strings.NewReader(in), s)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ParseError", err)
	}
	if pe.Truncated {
		t.Error("mid-file garbage flagged as truncation")
	}
	if pe.Line != 2 {
		t.Errorf("ParseError.Line = %d, want 2", pe.Line)
	}
	if len(s.Flows) != 1 {
		t.Errorf("prefix flows = %d, want 1", len(s.Flows))
	}
}

// TestRoundTripWriterReader pins writer and reader to the same schema:
// records written by obs.Collector's stream must decode back into
// identical structs.
func TestRoundTripWriterReader(t *testing.T) {
	var buf strings.Builder
	c := obs.NewCollector()
	c.StreamMetrics(&buf)
	flow := obs.FlowRecord{ID: 3, Transport: "ndp", Src: 4, Dst: 5, Bytes: 9000,
		FCT: 1.5e-4, Retransmits: 2, Subflows: 8, Planes: []int32{0, 2}}
	solve := obs.SolverRecord{Exp: "fig7", Solver: "gk-free", Lambda: 1.25,
		Phases: 9, Iterations: 77, Attempts: 1, WallSec: 0.25}
	c.RecordFlow(flow)
	c.RecordSolver(solve)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	s := &recorder{}
	if err := ReadStream(strings.NewReader(buf.String()), s); err != nil {
		t.Fatal(err)
	}
	if len(s.Flows) != 1 || len(s.Solvers) != 1 {
		t.Fatalf("stream = %+v", s)
	}
	got := s.Flows[0]
	got.Type = "" // writer stamps the discriminator
	flowWant := flow
	if got.ID != flowWant.ID || got.FCT != flowWant.FCT || got.Subflows != flowWant.Subflows ||
		len(got.Planes) != 2 || got.Planes[1] != 2 {
		t.Errorf("flow round-trip: got %+v want %+v", got, flowWant)
	}
	if s.Solvers[0].Iterations != 77 || s.Solvers[0].WallSec != 0.25 {
		t.Errorf("solver round-trip: %+v", s.Solvers[0])
	}
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Errorf("stream has %d lines, want the flow and the solver record only", n)
	}
}
