package report

import (
	"errors"
	"math"
	"strings"
	"testing"

	"pnet/internal/sim"
)

// spanStream is a small run with attribution spans: two flows, one a
// slow outlier dominated by an RTO stall.
const spanStream = `{"type":"flow","id":1,"transport":"tcp","bytes":1000000,"fct_s":0.001,"spans":[{"c":"queue","plane":0,"ps":200000000},{"c":"serialize","plane":0,"ps":500000000},{"c":"propagate","plane":0,"ps":300000000}]}
{"type":"flow","id":2,"transport":"tcp","bytes":1000000,"fct_s":0.011,"spans":[{"c":"serialize","plane":1,"ps":1000000000},{"c":"rto_stall","plane":-1,"ps":10000000000}]}
`

func loadSpanStream(t *testing.T) RunSummary {
	t.Helper()
	a := NewAggregator()
	if err := ReadStream(strings.NewReader(spanStream), a); err != nil {
		t.Fatal(err)
	}
	return a.Summarize(Meta{Exp: "test"})
}

func TestAttributionSummaryFromStream(t *testing.T) {
	s := loadSpanStream(t)
	a := s.Attribution
	if a == nil {
		t.Fatal("no attribution summary from a stream with spans")
	}
	if a.Flows != 2 {
		t.Errorf("flows = %d, want 2", a.Flows)
	}
	// 12 ms of attributed time in total.
	if math.Abs(a.TotalSec-0.012) > 1e-12 {
		t.Errorf("total = %v s, want 0.012", a.TotalSec)
	}
	var shareSum float64
	for _, c := range a.Overall {
		shareSum += c.Share
		if c.Seconds <= 0 {
			t.Errorf("cell %+v has non-positive seconds", c)
		}
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", shareSum)
	}
	// rto_stall dominates: 10ms of 12ms.
	if got := a.ComponentShare("rto_stall"); math.Abs(got-10.0/12) > 1e-9 {
		t.Errorf("rto_stall share = %v, want %v", got, 10.0/12)
	}
	// Cells are sorted by (component enum order, plane) — deterministic
	// output in the order the pipeline stages run.
	for i := 1; i < len(a.Overall); i++ {
		p, c := a.Overall[i-1], a.Overall[i]
		pc, ok1 := sim.ParseSpanComponent(p.Component)
		cc, ok2 := sim.ParseSpanComponent(c.Component)
		if !ok1 || !ok2 {
			t.Fatalf("unparseable component in %+v / %+v", p, c)
		}
		if pc > cc || (pc == cc && p.Plane >= c.Plane) {
			t.Errorf("cells out of order at %d: %+v then %+v", i, p, c)
		}
	}
	// The tail (p99.9 of 2 flows = the slow one) is nearly all stall.
	if a.TailFlows != 1 {
		t.Errorf("tail flows = %d, want 1", a.TailFlows)
	}
	var tailStall float64
	for _, c := range a.Tail {
		if c.Component == "rto_stall" {
			tailStall += c.Share
		}
	}
	if tailStall < 0.9 {
		t.Errorf("tail rto_stall share = %v, want > 0.9", tailStall)
	}
	if !strings.Contains(s.AttributionString(), "rto_stall") {
		t.Error("AttributionString missing component rows")
	}
}

// TestReadStreamTruncatedSpanRecord: a stream cut off in the middle of a
// flow record's span list must yield the complete prefix plus a typed
// *ParseError with Truncated set.
func TestReadStreamTruncatedSpanRecord(t *testing.T) {
	lines := strings.SplitAfter(spanStream, "\n")
	in := lines[0] + lines[1][:len(lines[1])-40] // cut inside flow 2's spans
	st := &recorder{}
	err := ReadStream(strings.NewReader(in), st)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ParseError", err)
	}
	if !pe.Truncated || pe.Line != 2 {
		t.Errorf("ParseError = %+v, want Truncated at line 2", pe)
	}
	if len(st.Flows) != 1 || len(st.Flows[0].Spans) != 3 {
		t.Errorf("prefix lost: %+v", st.Flows)
	}
}

// TestReadStreamUnknownSpanComponent: a component name this schema does
// not define is a typed *ParseError, not a panic and not silent skew.
func TestReadStreamUnknownSpanComponent(t *testing.T) {
	in := `{"type":"flow","id":1,"fct_s":0.1,"spans":[{"c":"warp_drive","plane":0,"ps":1}]}` + "\n"
	st := &recorder{}
	err := ReadStream(strings.NewReader(in), st)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ParseError", err)
	}
	if !strings.Contains(pe.Error(), "warp_drive") {
		t.Errorf("error does not name the bad component: %v", pe)
	}
	if len(st.Flows) != 0 {
		t.Errorf("bad flow record kept: %+v", st.Flows)
	}
}

// TestReadStreamUnknownProfileKind: the event-loop profile record is
// gone from the schema, and a stream from an older binary that carries
// one fails at that line with a typed *UnknownKindError, every earlier
// record already delivered. Nothing reads the old kind back.
func TestReadStreamUnknownProfileKind(t *testing.T) {
	in := spanStream + `{"type":"profile","net":0,"kind":"hop","plane":0,"events":600,"wall_ns":3000,"sim_ps":10000000000}` + "\n" +
		`{"type":"flow","id":3,"fct_s":0.1}` + "\n"
	st := &recorder{}
	err := ReadStream(strings.NewReader(in), st)
	var uk *UnknownKindError
	if !errors.As(err, &uk) {
		t.Fatalf("err = %v, want *UnknownKindError", err)
	}
	if uk.Kind != "profile" || uk.Line != 3 {
		t.Errorf("UnknownKindError = %+v, want kind profile at line 3", uk)
	}
	if len(st.Flows) != 2 || st.Flows[0].ID != 1 || st.Flows[1].ID != 2 {
		t.Errorf("records before the profile line: %+v, want flows 1 and 2", st.Flows)
	}
}

// TestDiffAddedMetrics: metrics measured only by the current run must
// surface as added entries — visible, never gating.
func TestDiffAddedMetrics(t *testing.T) {
	cur := loadSpanStream(t)
	base := RunSummary{Flows: 2, FlowBytes: cur.FlowBytes}

	d := Diff(base, cur, 0)
	if !d.Pass {
		t.Errorf("added-only diff failed the gate: %+v", d.Regressions())
	}
	added := map[string]bool{}
	for _, dl := range d.Added {
		added[dl.Metric] = true
	}
	for _, want := range []string{
		"fct_s.p50",
		"attribution.rto_stall.plane-1.share",
	} {
		if !added[want] {
			t.Errorf("added is missing %q; got %v", want, added)
		}
	}
	// Added entries must never appear as gated deltas.
	for _, dl := range d.Deltas {
		if added[dl.Metric] {
			t.Errorf("%q is both a delta and an added entry", dl.Metric)
		}
	}
	if !strings.Contains(d.String(), "new in current run") {
		t.Error("DiffReport.String does not render added metrics")
	}
}

// TestDiffAttributionGated: when both runs carry attribution, growth in
// the stall shares beyond the threshold fails the gate.
func TestDiffAttributionGated(t *testing.T) {
	base := loadSpanStream(t)
	cur := loadSpanStream(t)
	for i := range cur.Attribution.Overall {
		c := &cur.Attribution.Overall[i]
		if c.Component == "rto_stall" {
			c.Share *= 1.5
		}
	}
	d := Diff(base, cur, DefaultRelThreshold)
	if d.Pass {
		t.Fatal("50% more rto_stall share passed the gate")
	}
	found := false
	for _, dl := range d.Regressions() {
		if dl.Metric == "attribution.rto_stall.share" {
			found = true
		}
	}
	if !found {
		t.Errorf("regressions = %+v, want attribution.rto_stall.share", d.Regressions())
	}
}
