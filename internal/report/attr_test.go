package report

import (
	"errors"
	"math"
	"strings"
	"testing"

	"pnet/internal/sim"
)

// spanStream is a small run with attribution spans and profile records:
// two flows (one slow outlier dominated by an RTO stall) plus one
// engine's flight recording over 10ms of sim time.
const spanStream = `{"type":"flow","id":1,"transport":"tcp","bytes":1000000,"fct_s":0.001,"spans":[{"c":"queue","plane":0,"ps":200000000},{"c":"serialize","plane":0,"ps":500000000},{"c":"propagate","plane":0,"ps":300000000}]}
{"type":"flow","id":2,"transport":"tcp","bytes":1000000,"fct_s":0.011,"spans":[{"c":"serialize","plane":1,"ps":1000000000},{"c":"rto_stall","plane":-1,"ps":10000000000}]}
{"type":"profile","net":0,"kind":"hop","plane":0,"events":600,"wall_ns":3000,"sim_ps":10000000000}
{"type":"profile","net":0,"kind":"tx","plane":0,"events":200,"wall_ns":1000,"sim_ps":10000000000}
{"type":"profile","net":0,"kind":"hop","plane":1,"events":100,"wall_ns":500,"sim_ps":10000000000}
{"type":"profile","net":0,"kind":"deliver","plane":1,"events":80,"wall_ns":400,"sim_ps":10000000000}
{"type":"profile","net":0,"kind":"timer","plane":-1,"events":20,"wall_ns":100,"sim_ps":10000000000}
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

func TestProfileSummaryFromStream(t *testing.T) {
	s := loadSpanStream(t)
	p := s.Profile
	if p == nil {
		t.Fatal("no profile summary from a stream with profile records")
	}
	if p.Engines != 1 || p.Events != 1000 {
		t.Errorf("engines=%d events=%d, want 1/1000", p.Engines, p.Events)
	}
	if p.HostEvents != 100 { // deliver 80 + timer 20
		t.Errorf("host events = %d, want 100", p.HostEvents)
	}
	if math.Abs(p.HostFrac-0.1) > 1e-9 {
		t.Errorf("host frac = %v, want 0.1", p.HostFrac)
	}
	out := s.ProfileString()
	for _, needle := range []string{"host boundary", "plane 0"} {
		if !strings.Contains(out, needle) {
			t.Errorf("ProfileString missing %q:\n%s", needle, out)
		}
	}
}

// TestReadStreamTruncatedSpanRecord: a stream cut off in the middle of a
// flow record's span list must yield the complete prefix plus a typed
// *ParseError with Truncated set.
func TestReadStreamTruncatedSpanRecord(t *testing.T) {
	lines := strings.SplitAfter(spanStream, "\n")
	in := lines[0] + lines[1][:len(lines[1])-40] // cut inside flow 2's spans
	st := &Stream{}
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
	st := &Stream{}
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

// TestReadStreamUnknownProfileKind: a profile kind this schema does not
// define is a typed *ParseError. That covers a typo and the three
// occupancy kinds that streams written by earlier versions carry, which
// must not be binned as planes.
func TestReadStreamUnknownProfileKind(t *testing.T) {
	for _, kind := range []string{"teleport", "hostload", "subshard", "planeshard"} {
		in := `{"type":"profile","net":0,"kind":"` + kind + `","plane":3,"events":1,"wall_ns":0,"sim_ps":5}` + "\n"
		st := &Stream{}
		err := ReadStream(strings.NewReader(in), st)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want *ParseError", kind, err)
		}
		if !strings.Contains(pe.Error(), "unknown event kind") || !strings.Contains(pe.Error(), kind) {
			t.Errorf("%s: error does not name the bad kind: %v", kind, pe)
		}
		if len(st.Profiles) != 0 {
			t.Errorf("%s: bad profile record kept: %+v", kind, st.Profiles)
		}
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
		"profile.events",
		"profile.host_frac",
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
	d := Diff(base, cur, 0)
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
