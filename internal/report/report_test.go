package report

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/metrics"
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
// `pnetbench -spans -fingerprint -metrics m.jsonl -report r.json` in
// miniature. The stream must hold all seven record kinds, the partial
// fingerprint checkpoints included, which only Close emits; and
// ReadStream must hand back exactly what the collector wrote: decoded
// into a MetricsWriter, it reproduces the file byte for byte. An Aggregator fed live must summarize exactly as one fed
// from the file does (`pnetstat summary m.jsonl`), in every field: a
// report holds nothing its stream does not. One of the two networks stops
// before its first sampler tick: it is still an engine in both.
func TestFromStreamMatchesAggregator(t *testing.T) {
	var buf bytes.Buffer
	c := obs.NewCollector()
	c.Spans, c.Fingerprint = true, true
	c.FingerprintEpoch = 64
	c.StreamMetrics(&buf)
	aggr := NewAggregator()
	c.Sink = aggr

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
	c.RecordFault(obs.FaultRecord{Net: 0, TPs: 1e6, Event: "inject", Target: "plane:1", Plane: 1})
	c.RecordFault(obs.FaultRecord{Net: 0, TPs: 2e6, Event: "detect", Target: "plane:1", Plane: 1, LatencySec: 5e-4})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The records: every kind is there, and the file decodes to exactly
	// what was written.
	for _, kind := range []string{obs.KindLink, obs.KindPlane, obs.KindEngine, obs.KindFlow, obs.KindSolver,
		obs.KindFault, obs.KindFingerprint} {
		if !bytes.Contains(buf.Bytes(), []byte(`{"type":"`+kind+`"`)) {
			t.Errorf("no %s record in the stream; the scene must produce every kind a collector emits", kind)
		}
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"final":true`)) {
		t.Error("no partial fingerprint checkpoint in the stream")
	}
	var again bytes.Buffer
	rewrite := obs.NewMetricsWriter(&again)
	fileAggr := NewAggregator()
	if err := ReadStream(bytes.NewReader(buf.Bytes()), obs.Tee(rewrite, fileAggr)); err != nil {
		t.Fatal(err)
	}
	if err := rewrite.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		want, got := strings.Split(buf.String(), "\n"), strings.Split(again.String(), "\n")
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("the stream read back and written again differs at line %d of %d:\nfile:    %s\nrewrite: %s",
					i+1, len(want), want[i], got[min(i, len(got)-1)])
			}
		}
		t.Fatalf("the rewrite has %d lines, the file %d", len(got), len(want))
	}

	// The summaries: both networks counted everywhere, and equal.
	m := Meta{Exp: "t", Scale: "small", Seed: 1}
	file, live := fileAggr.Summarize(m), aggr.Summarize(m)
	if live.Flows != 2 || live.LinkUtil.Count == 0 || len(live.PlaneShares) != 2 || live.Faults == nil ||
		live.Attribution == nil || live.Fingerprint == nil {
		t.Fatalf("live summary is missing a block: %+v", live)
	}
	if live.Engine.Networks != 2 || live.Fingerprint.Engines != 2 {
		t.Errorf("engines: %d sampled, %d fingerprinted, want 2 each", live.Engine.Networks, live.Fingerprint.Engines)
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
	d = Diff(base, bad, DefaultRelThreshold)
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
	d = Diff(base, slower, DefaultRelThreshold)
	if d.Pass {
		t.Error("halved goodput passed the gate")
	}
}

// TestSelfDiffPrintsNoNegativeZero: a summary diffed against itself reads
// +0.00% on every row, the lower-is-worse ones (flows, flow_bytes,
// goodput_bps) included, whose negated zero delta once printed -0.00%.
func TestSelfDiffPrintsNoNegativeZero(t *testing.T) {
	d := Diff(sampleSummary(), sampleSummary(), 0)
	lowerWorse := 0
	for _, dl := range d.Deltas {
		if math.Signbit(dl.Rel) || dl.Rel != 0 {
			t.Errorf("%s: self-diff delta %v, want +0", dl.Metric, dl.Rel)
		}
		switch dl.Metric {
		case "flows", "flow_bytes", "goodput_bps":
			lowerWorse++
		}
	}
	if lowerWorse != 3 {
		t.Errorf("%d of the 3 lower-is-worse rows compared", lowerWorse)
	}
	if out := d.String(); strings.Contains(out, "-0.00%") {
		t.Errorf("self-diff prints -0.00%%:\n%s", out)
	}
}

// TestDiffGatesEachSolve: suite totals cannot tell more solves from
// costlier ones. Two runs with equal totals, iterations moved from one
// (experiment, solver, K) to another, must fail the diff on the solve
// that grew, and a solve only the current run made is listed, not gated.
func TestDiffGatesEachSolve(t *testing.T) {
	run := func(recs ...obs.SolverRecord) RunSummary {
		a := NewAggregator()
		for _, r := range recs {
			a.Solver(r)
		}
		return a.Summarize(Meta{})
	}
	base := run(
		obs.SolverRecord{Exp: "fig7", Solver: "gk-free", Phases: 40, Iterations: 1000},
		obs.SolverRecord{Exp: "fig8a", Solver: "gk-fixed", K: 8, Phases: 40, Iterations: 1000},
		obs.SolverRecord{Exp: "fig8a", Solver: "gk-fixed", K: 8, Phases: 40, Iterations: 1000})
	cur := run(
		obs.SolverRecord{Exp: "fig7", Solver: "gk-free", Phases: 40, Iterations: 1500},
		obs.SolverRecord{Exp: "fig8a", Solver: "gk-fixed", K: 8, Phases: 40, Iterations: 750},
		obs.SolverRecord{Exp: "fig8a", Solver: "gk-fixed", K: 8, Phases: 40, Iterations: 750})
	if base.Solver.Iterations != cur.Solver.Iterations || base.Solver.Phases != cur.Solver.Phases {
		t.Fatalf("totals differ: %+v vs %+v", base.Solver, cur.Solver)
	}
	want := []SolveTotals{
		{Exp: "fig7", Solver: "gk-free", Calls: 1, Phases: 40, Iterations: 1500},
		{Exp: "fig8a", Solver: "gk-fixed", K: 8, Calls: 2, Phases: 80, Iterations: 1500},
	}
	if !reflect.DeepEqual(cur.Solver.Solves, want) {
		t.Errorf("solves = %+v, want %+v", cur.Solver.Solves, want)
	}
	d := Diff(base, cur, DefaultRelThreshold)
	regs := d.Regressions()
	if d.Pass || len(regs) != 1 || regs[0].Metric != "solver.fig7.gk-free.k0.iterations" {
		t.Errorf("moved iterations: regressions %+v, want solver.fig7.gk-free.k0.iterations alone:\n%s", regs, d)
	}
	if regs := Diff(cur, base, DefaultRelThreshold).Regressions(); len(regs) != 1 || regs[0].Metric != "solver.fig8a.gk-fixed.k8.iterations" {
		t.Errorf("the reverse move: regressions %+v, want solver.fig8a.gk-fixed.k8.iterations alone", regs)
	}

	more := run(append([]obs.SolverRecord{{Exp: "fig6c", Solver: "maxmin", Phases: 1, Iterations: 9}},
		obs.SolverRecord{Exp: "fig7", Solver: "gk-free", Phases: 40, Iterations: 1000},
		obs.SolverRecord{Exp: "fig8a", Solver: "gk-fixed", K: 8, Phases: 40, Iterations: 1000},
		obs.SolverRecord{Exp: "fig8a", Solver: "gk-fixed", K: 8, Phases: 40, Iterations: 1000})...)
	d = Diff(base, more, 1)
	if !d.Pass || len(d.Added) != 2 || d.Added[0].Metric != "solver.fig6c.maxmin.k0.phases" {
		t.Errorf("a new solve: pass=%v added=%+v, want pass with its two rows added", d.Pass, d.Added)
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

	// A file that cannot be opened has no summary, not one of nothing.
	s, err = LoadRun(filepath.Join(dir, "missing.jsonl"), Meta{Exp: "x"})
	if err == nil || !reflect.DeepEqual(s, RunSummary{}) {
		t.Errorf("missing file: %+v, %v; want RunSummary{} and an error", s, err)
	}
}

func faultySummary() RunSummary {
	a := NewAggregator()
	a.Flow(obs.FlowRecord{Bytes: 1000, FCT: 0.01})
	a.Fault(obs.FaultRecord{Event: "inject", Target: "plane:0", Plane: 0, TPs: 1e9})
	a.Fault(obs.FaultRecord{Event: "detect", Target: "plane:0", Plane: 0, TPs: 2e9, LatencySec: 3e-4})
	a.Fault(obs.FaultRecord{Event: "failover", Target: "plane:0", Plane: 0, TPs: 3e9, LatencySec: 2e-2})
	a.Fault(obs.FaultRecord{Event: "recover", Target: "plane:0", Plane: 0, TPs: 5e9, LatencySec: 4e-2, DipFrac: 0.8})
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
	if f.Injected != 1 || f.Detected != 1 {
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
	c.RecordFault(obs.FaultRecord{Net: 0, TPs: 1e9, Event: "inject", Target: "plane:1", Plane: 1})
	c.RecordFault(obs.FaultRecord{Net: 0, TPs: 2e9, Event: "detect", Target: "plane:1", Plane: 1, LatencySec: 5e-4})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st, aggr := &recorder{}, NewAggregator()
	if err := ReadStream(&buf, obs.Tee(st, aggr)); err != nil {
		t.Fatal(err)
	}
	if len(st.Faults) != 2 || st.Faults[0].Target != "plane:1" || st.Faults[1].LatencySec != 5e-4 {
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
	d = Diff(base, worse, DefaultRelThreshold)
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

// TestLinkPercentilesFromCounts: link utilization's percentiles lie
// within its 0.001 step of the exact ones over the raw values, queue
// depth's equal them, and 100 000 utilizations in [0, 1] hold at most
// 1 001 distinct keys.
func TestLinkPercentilesFromCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAggregator()
	var utils, queues []float64
	for i := range 100_000 {
		// Idle links are common and saturated ones rare; the rest spread
		// out.
		u := rng.Float64()
		switch r := rng.Intn(200); {
		case r < 60:
			u = 0
		case r == 60:
			u = 1
		}
		q := int32(rng.Intn(40)*1500 + rng.Intn(2)*64)
		a.Link(obs.LinkRecord{Net: i % 4, TPs: int64(i), Link: int64(i % 64), Util: u, QueueBytes: q})
		utils = append(utils, u)
		queues = append(queues, float64(q))
	}
	s := a.Summarize(Meta{})
	sort.Float64s(utils)
	sort.Float64s(queues)
	for _, c := range []struct {
		name   string
		got    Dist
		sorted []float64
		within float64
	}{
		{"link_util", s.LinkUtil, utils, 0.001},
		{"queue_bytes", s.QueueBytes, queues, 0},
	} {
		n := len(c.sorted)
		if c.got.Count != int64(n) || c.got.Min != c.sorted[0] || c.got.Max != c.sorted[n-1] {
			t.Errorf("%s: count/min/max = %d/%v/%v, want %d/%v/%v", c.name,
				c.got.Count, c.got.Min, c.got.Max, n, c.sorted[0], c.sorted[n-1])
		}
		for _, q := range []struct {
			p   float64
			got float64
		}{{50, c.got.P50}, {99, c.got.P99}, {99.9, c.got.P999}} {
			if want := metrics.Percentile(c.sorted, q.p); math.Abs(q.got-want) > c.within {
				t.Errorf("%s p%v = %v, want %v within %v", c.name, q.p, q.got, want, c.within)
			}
		}
	}
	if keys := len(a.util.n); keys > 1001 {
		t.Errorf("%d util keys held, want at most 1001", keys)
	}
}
