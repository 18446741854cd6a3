package report

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/obs"
	"pnet/internal/sim"
	"pnet/internal/tcp"
)

func sampleSummary() RunSummary {
	a := NewAggregator()
	for i := 1; i <= 1000; i++ {
		a.Flow(obs.FlowRecord{Bytes: 1000, FCT: float64(i) * 1e-4})
	}
	a.Solver(obs.SolverRecord{Phases: 10, Iterations: 300, Attempts: 1, WallSec: 0.5})
	a.Solver(obs.SolverRecord{Phases: 5, Iterations: 100, Attempts: 1, WallSec: 0.25})
	// Two networks, cumulative plane counters: plane 0 carries 3 MB,
	// plane 1 carries 1 MB in total.
	a.Plane(obs.PlaneRecord{Net: 0, TPs: 1e9, Plane: 0, TxBytes: 1_000_000})
	a.Plane(obs.PlaneRecord{Net: 0, TPs: 2e9, Plane: 0, TxBytes: 2_000_000})
	a.Plane(obs.PlaneRecord{Net: 0, TPs: 2e9, Plane: 1, TxBytes: 1_000_000})
	a.Plane(obs.PlaneRecord{Net: 1, TPs: 2e9, Plane: 0, TxBytes: 1_000_000})
	a.Link(obs.LinkRecord{Net: 0, TPs: 1e9, Link: 1, Plane: 0, QueueBytes: 1500, Util: 0.5, Drops: 1})
	a.Link(obs.LinkRecord{Net: 0, TPs: 2e9, Link: 1, Plane: 0, QueueBytes: 3000, Util: 0.9, Drops: 4})
	a.Link(obs.LinkRecord{Net: 1, TPs: 2e9, Link: 1, Plane: 0, QueueBytes: 0, Util: 0.1, Drops: 2})
	a.Engine(obs.EngineRecord{Net: 0, TPs: 2e9, Events: 5000, WallNano: 1e6})
	a.Engine(obs.EngineRecord{Net: 1, TPs: 2e9, Events: 5000, WallNano: 1e6})
	return a.Summarize(Meta{Exp: "test", Scale: "small", Seed: 1, Created: "2026-08-05T00:00:00Z"})
}

func TestRunSummaryAggregation(t *testing.T) {
	s := sampleSummary()
	if s.SchemaVersion != SchemaVersion {
		t.Errorf("schema version = %d", s.SchemaVersion)
	}
	if s.Flows != 1000 || s.FlowBytes != 1_000_000 {
		t.Errorf("flows = %d bytes = %d", s.Flows, s.FlowBytes)
	}
	// FCTs are 0.1ms..100ms uniform; exact percentiles.
	if math.Abs(s.FCT.P50-0.05) > 0.001 {
		t.Errorf("fct p50 = %v, want ~0.05", s.FCT.P50)
	}
	if s.FCT.P99 < 0.098 || s.FCT.P99 > 0.1 {
		t.Errorf("fct p99 = %v", s.FCT.P99)
	}
	if s.FCT.P999 <= s.FCT.P99 || s.FCT.P999 > s.FCT.Max {
		t.Errorf("fct p999 = %v not in (p99, max]", s.FCT.P999)
	}
	// Plane shares: cumulative counters resolve to last value per
	// (net, plane): plane0 = 2MB + 1MB = 3MB, plane1 = 1MB.
	if len(s.PlaneShares) != 2 {
		t.Fatalf("plane shares = %+v", s.PlaneShares)
	}
	if s.PlaneShares[0].Bytes != 3_000_000 || s.PlaneShares[1].Bytes != 1_000_000 {
		t.Errorf("plane bytes = %+v", s.PlaneShares)
	}
	if math.Abs(s.PlaneShares[0].Share-0.75) > 1e-9 {
		t.Errorf("plane 0 share = %v", s.PlaneShares[0].Share)
	}
	// Imbalance: max 3MB over mean 2MB.
	if math.Abs(s.PlaneImbalance-1.5) > 1e-9 {
		t.Errorf("imbalance = %v", s.PlaneImbalance)
	}
	// Drops: cumulative per (net, link): 4 + 2.
	if s.Drops != 6 {
		t.Errorf("drops = %d", s.Drops)
	}
	if s.Solver.Calls != 2 || s.Solver.Phases != 15 || s.Solver.Iterations != 400 {
		t.Errorf("solver = %+v", s.Solver)
	}
	if s.Solver.WallSec != 0.75 {
		t.Errorf("solver wall = %v", s.Solver.WallSec)
	}
	if s.Engine.Events != 10000 || s.Engine.SimSec != 2e-3 {
		t.Errorf("engine = %+v", s.Engine)
	}
	// Goodput: 1 MB over 2 ms of sim time = 4 Gbit/s.
	if math.Abs(s.GoodputBps-4e9) > 1 {
		t.Errorf("goodput = %v", s.GoodputBps)
	}
	// Human rendering carries the acceptance quantities.
	out := s.String()
	for _, want := range []string{"p50=", "p99=", "p999=", "planes:", "solver:", "wall 0.750s"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
}

// TestDistFromSamplesExact pins Dist, bit for bit, to the computation it
// replaced (sort a copy, sum in sorted order, interpolate between closest
// ranks per quantile) on an unsorted sample with ties, small enough that
// p99 and p99.9 both interpolate: no report byte can have moved.
func TestDistFromSamplesExact(t *testing.T) {
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = float64((i*7919)%263)*1e-4 + 1e-7/float64(i+1)
	}
	xs[5], xs[200] = xs[17], xs[17]
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	pct := func(p float64) float64 {
		rank := p / 100 * 256
		lo := math.Floor(rank)
		if frac := rank - lo; frac != 0 {
			return sorted[int(lo)]*(1-frac) + sorted[int(lo)+1]*frac
		}
		return sorted[int(lo)]
	}
	want := Dist{Count: 257, Mean: sum / 257, Min: sorted[0], Max: sorted[256],
		P50: pct(50), P99: pct(99), P999: pct(99.9)}
	if got := distFromSamples(xs); got != want {
		t.Errorf("distFromSamples = %+v\nwant %+v", got, want)
	}
}

// twoPlaneNet builds a 2-host network with one switch per plane and
// returns the host-to-host path on each plane.
func twoPlaneNet() (*sim.Engine, *sim.Network, []graph.Path) {
	g := graph.New(4)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	a0, _ := g.AddDuplex(0, 2, 100, 0)
	_, d0 := g.AddDuplex(1, 2, 100, 0)
	a1, _ := g.AddDuplex(0, 3, 100, 1)
	_, d1 := g.AddDuplex(1, 3, 100, 1)
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{})
	return eng, net, []graph.Path{{Links: []graph.LinkID{a0, d0}}, {Links: []graph.LinkID{a1, d1}}}
}

// TestFromStreamMatchesAggregator pins the one road at both ends, on
// `pnetbench -spans -fingerprint -trace -metrics m.jsonl -report r.json`
// in miniature. A recording sink tee'd beside the metrics stream must
// see, kind by kind and value by value, exactly the records ReadStream
// hands back from the file: all nine kinds, packet events, profile bins
// and the partial fingerprint checkpoints included, which only Close
// emits. And an Aggregator fed live, beside the recorder, must summarize
// exactly as one fed from the file does (`pnetstat summary m.jsonl`), in
// every field: a report holds nothing its stream does not. One of the two
// networks stops before its first sampler tick: it is still an engine in
// both.
func TestFromStreamMatchesAggregator(t *testing.T) {
	var buf bytes.Buffer
	c := obs.NewCollector()
	c.Interval = sim.Microsecond
	c.Spans, c.Fingerprint, c.Trace = true, true, true
	c.FingerprintEpoch = 64
	c.StreamMetrics(&buf)
	recorded, aggr := &Stream{}, NewAggregator()
	c.Sink = obs.Tee(recorded, aggr)

	// Network 0: an MPTCP flow over both planes and a single-path flow,
	// run to completion over many sampler ticks.
	eng, net, paths := twoPlaneNet()
	c.AttachNetwork(eng, net)
	for i, ps := range [][]graph.Path{paths, paths[:1]} {
		f, err := tcp.NewFlow(net, tcp.Config{}, ps, 300_000)
		if err != nil {
			t.Fatal(err)
		}
		f.ID = int64(i + 1)
		f.OnComplete = func(fl *tcp.Flow) {
			r := obs.FlowRecord{ID: fl.ID, TPs: int64(fl.Finished), Transport: "tcp", Dst: 1,
				Bytes: 300_000, FCT: fl.FCT().Seconds(), Retransmits: fl.Retransmits, Subflows: fl.Subflows()}
			for _, sp := range fl.Attribution() {
				r.Spans = append(r.Spans, obs.SpanShare{Component: sp.Comp.String(), Plane: sp.Plane, Ps: int64(sp.Dur)})
			}
			c.RecordFlow(r)
		}
		f.Start()
	}
	eng.Run()

	// Network 1: one packet, stopped half an interval in.
	eng1, net1, paths1 := twoPlaneNet()
	c.AttachNetwork(eng1, net1)
	p := net1.NewPacket()
	p.Size = 1500
	p.Route = paths1[1].Links
	p.Deliver = releaseSink{net1}
	net1.Send(p)
	if eng1.RunUntil(sim.Microsecond/2) == 0 {
		t.Fatal("network 1 fired no events")
	}

	c.RecordSolver(obs.SolverRecord{Exp: "t", Solver: "gk-fixed", Phases: 2, Iterations: 9, Attempts: 1, WallSec: 0.01})
	c.RecordFault(obs.FaultRecord{Net: 0, TPs: 1e6, Event: "inject", Target: "link:7", Plane: 1})
	c.RecordFault(obs.FaultRecord{Net: 0, TPs: 2e6, Event: "detect", Target: "plane:1", Plane: 1, LatencySec: 5e-4})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The records: what the live sink saw is what the file gives back.
	fromFile, fileAggr := &Stream{}, NewAggregator()
	if err := ReadStream(bytes.NewReader(buf.Bytes()), obs.Tee(fromFile, fileAggr)); err != nil {
		t.Fatal(err)
	}
	lv, fv := reflect.ValueOf(recorded).Elem(), reflect.ValueOf(fromFile).Elem()
	for i := 0; i < lv.NumField(); i++ {
		kind := lv.Type().Field(i)
		if !kind.IsExported() {
			continue
		}
		l, f := lv.Field(i), fv.Field(i)
		if l.Len() == 0 {
			t.Errorf("%s: the live sink saw no records; the scene must produce every kind a collector emits", kind.Name)
		}
		if l.Len() != f.Len() {
			t.Errorf("%s: %d records live, %d from the file", kind.Name, l.Len(), f.Len())
			continue
		}
		for j := 0; j < l.Len(); j++ {
			if !reflect.DeepEqual(l.Index(j).Interface(), f.Index(j).Interface()) {
				t.Errorf("%s[%d]:\nlive: %+v\nfile: %+v", kind.Name, j, l.Index(j).Interface(), f.Index(j).Interface())
			}
		}
	}

	// The summaries: both networks counted everywhere, and equal.
	m := Meta{Exp: "t", Scale: "small", Seed: 1}
	file, live := fileAggr.Summarize(m), aggr.Summarize(m)
	if live.Flows != 2 || live.LinkUtil.Count == 0 || len(live.PlaneShares) != 2 || live.Faults == nil ||
		live.Attribution == nil || live.Profile == nil || live.Fingerprint == nil {
		t.Fatalf("live summary is missing a block: %+v", live)
	}
	if live.Engine.Networks != 2 || live.Profile.Engines != 2 || live.Fingerprint.Engines != 2 {
		t.Errorf("engines: %d sampled, %d profiled, %d fingerprinted, want 2 each",
			live.Engine.Networks, live.Profile.Engines, live.Fingerprint.Engines)
	}
	if !reflect.DeepEqual(live, file) {
		lb, _ := json.MarshalIndent(live, "", " ")
		fb, _ := json.MarshalIndent(file, "", " ")
		t.Errorf("an Aggregator fed live and one fed from the file disagree:\nlive: %s\nfile: %s", lb, fb)
	}
}

type releaseSink struct{ net *sim.Network }

func (r releaseSink) HandlePacket(p *sim.Packet) { r.net.Release(p) }

func TestDiffPassAndFail(t *testing.T) {
	base := sampleSummary()

	// Identical runs pass with zero deltas.
	d := Diff(base, base, 0)
	if !d.Pass || len(d.Regressions()) != 0 {
		t.Fatalf("self-diff failed: %s", d)
	}

	// p99 FCT inflated 20% beyond the 10% default threshold fails the
	// gate — the acceptance scenario.
	bad := sampleSummary()
	bad.FCT.P99 *= 1.2
	d = Diff(base, bad, 0)
	if d.Pass {
		t.Fatalf("inflated p99 passed:\n%s", d)
	}
	regs := d.Regressions()
	found := false
	for _, r := range regs {
		if r.Metric == "fct_s.p99" && r.Rel > 0.19 && r.Rel < 0.21 {
			found = true
		}
	}
	if !found {
		t.Errorf("regressions = %+v, want fct_s.p99 at +20%%", regs)
	}

	// Same inflation under a 30% threshold passes.
	d = Diff(base, bad, 0.30)
	if !d.Pass {
		t.Errorf("20%% inflation failed a 30%% threshold:\n%s", d)
	}

	// Improvements never fail, whatever the direction.
	better := sampleSummary()
	better.FCT.P99 *= 0.5
	better.GoodputBps *= 2
	d = Diff(base, better, 0)
	if !d.Pass {
		t.Errorf("improvement failed the gate:\n%s", d)
	}

	// Goodput is lower-is-worse.
	slower := sampleSummary()
	slower.GoodputBps *= 0.5
	d = Diff(base, slower, 0)
	if d.Pass {
		t.Error("halved goodput passed the gate")
	}
}

func TestDiffWallMetricsInformational(t *testing.T) {
	base := sampleSummary()
	noisy := sampleSummary()
	noisy.Solver.WallSec *= 10
	noisy.Engine.WallSec *= 10
	noisy.Engine.EventsPerSec /= 10
	if d := Diff(base, noisy, 0); !d.Pass {
		t.Errorf("wall-clock noise failed the gate:\n%s", d)
	}
}

// TestLoadRunSummaryJSON: the summary side of LoadRun's auto-detection,
// on a report as the previous schema wrote it. Its go_bench block is a
// key this binary no longer knows: ignored, every other field intact.
func TestLoadRunSummaryJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"schema_version": 1, "exp": "all", "seed": 1, "flows": 3,
 "fct_s": {"count": 3, "mean": 0.02, "min": 0.01, "p50": 0.02, "p99": 0.03, "p999": 0.03, "max": 0.03},
 "go_bench": [{"name": "BenchmarkEngineEventLoop", "runs": 100, "ns_per_op": 120.5, "metrics": {"ns/hop": 144}}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadRun(path, Meta{Exp: "ignored for a summary"})
	if err != nil {
		t.Fatalf("report with a go_bench block refused: %v", err)
	}
	if s.Exp != "all" || s.Seed != 1 || s.Flows != 3 || s.FCT.P99 != 0.03 {
		t.Errorf("loaded summary = %+v", s)
	}
}

func TestLoadRunJSONLAndTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.jsonl")
	jsonl := `{"type":"flow","id":1,"bytes":100,"fct_s":0.01}` + "\n" +
		`{"type":"flow","id":2,"bytes":100,"fct_s":0.03}` + "\n"
	if err := os.WriteFile(path, []byte(jsonl), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadRun(path, Meta{Exp: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Flows != 2 || s.FCT.Max != 0.03 || s.Exp != "x" {
		t.Errorf("summary = %+v", s)
	}

	// A truncated final line is tolerated: prefix summarized, no error.
	if err := os.WriteFile(path, []byte(jsonl+`{"type":"flow","id":3,"by`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = LoadRun(path, Meta{})
	if err != nil {
		t.Fatalf("truncated stream not tolerated: %v", err)
	}
	if s.Flows != 2 {
		t.Errorf("flows = %d, want the 2 complete records", s.Flows)
	}

	// Mid-file garbage is not: partial summary plus the typed error.
	if err := os.WriteFile(path, []byte("junk\n"+jsonl), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err = LoadRun(path, Meta{}); err == nil {
		t.Error("mid-file garbage loaded silently")
	}
}

func faultySummary() RunSummary {
	a := NewAggregator()
	a.Flow(obs.FlowRecord{Bytes: 1000, FCT: 0.01})
	a.Fault(obs.FaultRecord{Event: "inject", Target: "plane:0", Plane: 0, TPs: 1e9})
	a.Fault(obs.FaultRecord{Event: "detect", Target: "plane:0", Plane: 0, TPs: 2e9, LatencySec: 3e-4})
	a.Fault(obs.FaultRecord{Event: "failover", Target: "plane:0", Plane: 0, TPs: 3e9, LatencySec: 2e-2})
	a.Fault(obs.FaultRecord{Event: "recover", Target: "plane:0", Plane: 0, TPs: 5e9, LatencySec: 4e-2, DipFrac: 0.8})
	a.Fault(obs.FaultRecord{Event: "clear", Target: "plane:0", Plane: 0, TPs: 9e9})
	// Cumulative blackhole counters per (net, link): last value wins.
	a.Link(obs.LinkRecord{Net: 0, TPs: 2e9, Link: 3, Blackholed: 10})
	a.Link(obs.LinkRecord{Net: 0, TPs: 3e9, Link: 3, Blackholed: 25})
	a.Link(obs.LinkRecord{Net: 0, TPs: 3e9, Link: 4, Blackholed: 5})
	return a.Summarize(Meta{Exp: "faults", Scale: "small", Seed: 1, Created: "2026-08-05T00:00:00Z"})
}

func TestFaultSummaryAggregation(t *testing.T) {
	// A fault-free run carries no Faults block at all — older baselines
	// stay byte-compatible.
	if s := sampleSummary(); s.Faults != nil {
		t.Fatalf("fault-free summary has Faults = %+v", s.Faults)
	}

	s := faultySummary()
	f := s.Faults
	if f == nil {
		t.Fatal("faulty run has no Faults block")
	}
	if f.Injected != 1 || f.Cleared != 1 || f.Detected != 1 {
		t.Errorf("counts = %+v", f)
	}
	if f.Blackholed != 30 {
		t.Errorf("blackholed = %d, want 25+5", f.Blackholed)
	}
	if f.DetectLatency.Count != 1 || f.DetectLatency.Max != 3e-4 {
		t.Errorf("detect latency = %+v", f.DetectLatency)
	}
	if f.FailoverLatency.P50 != 2e-2 || f.Recovery.P50 != 4e-2 {
		t.Errorf("failover = %+v recovery = %+v", f.FailoverLatency, f.Recovery)
	}
	if f.DipFrac.Mean != 0.8 {
		t.Errorf("dip = %+v", f.DipFrac)
	}
	out := s.String()
	for _, want := range []string{"faults:", "1 injected", "30 blackholed", "detect p50="} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
}

func TestFaultRecordsRoundTripThroughJSONL(t *testing.T) {
	var buf bytes.Buffer
	c := obs.NewCollector()
	c.StreamMetrics(&buf)
	c.RecordFault(obs.FaultRecord{Net: 0, TPs: 1e9, Event: "inject", Target: "link:7", Plane: 1})
	c.RecordFault(obs.FaultRecord{Net: 0, TPs: 2e9, Event: "detect", Target: "plane:1", Plane: 1, LatencySec: 5e-4})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st, aggr := &Stream{}, NewAggregator()
	if err := ReadStream(&buf, obs.Tee(st, aggr)); err != nil {
		t.Fatal(err)
	}
	if len(st.Faults) != 2 || st.Faults[0].Target != "link:7" || st.Faults[1].LatencySec != 5e-4 {
		t.Fatalf("decoded faults = %+v", st.Faults)
	}
	f := aggr.Summarize(Meta{Exp: "t"}).Faults
	if f == nil || f.Injected != 1 || f.Detected != 1 || f.DetectLatency.Max != 5e-4 {
		t.Errorf("fault summary from the stream = %+v", f)
	}
}

func TestDiffFaultMetrics(t *testing.T) {
	base := faultySummary()

	// Fault metrics only compare when both runs have them: a faulty run
	// against a fault-free baseline must not trip the gate.
	clean := sampleSummary()
	d := Diff(clean, base, 10) // huge slack for unrelated metrics
	for _, dl := range d.Deltas {
		if strings.HasPrefix(dl.Metric, "faults.") {
			t.Errorf("fault metric %q compared against a fault-free baseline", dl.Metric)
		}
	}

	// Identical faulty runs pass.
	if d := Diff(base, base, 0); !d.Pass {
		t.Fatalf("self-diff failed:\n%s", d)
	}

	// A 50% slower detection fails the gate.
	worse := faultySummary()
	worse.Faults.DetectLatency.P50 *= 1.5
	worse.Faults.DetectLatency.Max *= 1.5
	d = Diff(base, worse, 0)
	if d.Pass {
		t.Fatalf("slower detection passed:\n%s", d)
	}
	found := false
	for _, r := range d.Regressions() {
		if r.Metric == "faults.detect_latency_s.p50" {
			found = true
		}
	}
	if !found {
		t.Errorf("regressions = %+v, want faults.detect_latency_s.p50", d.Regressions())
	}

	// Blackhole counts ride along informationally — they scale with the
	// injected fault load, not with code quality.
	noisier := faultySummary()
	noisier.Faults.Blackholed *= 100
	if d := Diff(base, noisier, 0); !d.Pass {
		t.Errorf("blackhole count gated:\n%s", d)
	}
}
