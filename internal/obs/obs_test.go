package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// Values spanning decades, like FCTs in seconds.
	vals := []float64{1e-6, 2e-6, 5e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}
	var sum float64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Count() != int64(len(vals)) {
		t.Errorf("count = %d", h.Count())
	}
	if math.Abs(h.Mean()-sum/float64(len(vals))) > 1e-12 {
		t.Errorf("mean = %v", h.Mean())
	}
	if h.Min() != 1e-6 || h.Max() != 10 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Log buckets guarantee 2x relative accuracy.
	if q := h.Quantile(0.5); q < 1e-4/2 || q > 1e-4*2 {
		t.Errorf("p50 = %v, want within 2x of 1e-4", q)
	}
	if q := h.Quantile(1); q != 10 {
		t.Errorf("p100 = %v, want max", q)
	}
	if q := h.Quantile(0.01); q < 1e-6 {
		t.Errorf("p1 = %v below min", q)
	}
}

// sliceSink keeps every record it is handed: what a test that wants the
// records attaches, since samplers and the collector retain nothing
// themselves. Not locked: for tests that run one engine at a time.
type sliceSink struct {
	links    []LinkRecord
	planes   []PlaneRecord
	engines  []EngineRecord
	flows    []FlowRecord
	solvers  []SolverRecord
	faults   []FaultRecord
	profiles []ProfileRecord
	fps      []FingerprintRecord
	packets  []PacketRecord
}

func (s *sliceSink) Link(r LinkRecord)               { s.links = append(s.links, r) }
func (s *sliceSink) Plane(r PlaneRecord)             { s.planes = append(s.planes, r) }
func (s *sliceSink) Engine(r EngineRecord)           { s.engines = append(s.engines, r) }
func (s *sliceSink) Flow(r FlowRecord)               { s.flows = append(s.flows, r) }
func (s *sliceSink) Solver(r SolverRecord)           { s.solvers = append(s.solvers, r) }
func (s *sliceSink) Fault(r FaultRecord)             { s.faults = append(s.faults, r) }
func (s *sliceSink) Profile(r ProfileRecord)         { s.profiles = append(s.profiles, r) }
func (s *sliceSink) Fingerprint(r FingerprintRecord) { s.fps = append(s.fps, r) }
func (s *sliceSink) Packet(r PacketRecord)           { s.packets = append(s.packets, r) }

// TestSinkOnlyCollectorSamples: a collector with a Sink and no metrics
// stream still starts a sampler, and records reach the sink as the
// schema writes them, Type and Net filled in: the path `pnetbench
// -report` uses.
func TestSinkOnlyCollectorSamples(t *testing.T) {
	g, p0, _ := twoPlane()
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{})

	sink := &sliceSink{}
	c := NewCollector()
	c.Interval = sim.Microsecond
	c.Sink = sink
	idle := sim.NewEngine() // takes NetID 0, never runs
	c.AttachNetwork(idle, sim.NewNetwork(idle, g, sim.Config{}))
	if id := c.AttachNetwork(eng, net); id != 1 {
		t.Fatalf("second network attached as net %d, want 1", id)
	}

	rs := &releaseSink{net: net}
	for i := 0; i < 10; i++ {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = p0
		p.Deliver = rs
		net.Send(p)
	}
	eng.Run()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if len(sink.engines) == 0 || len(sink.planes) == 0 || len(sink.links) == 0 {
		t.Fatalf("sink saw %d/%d/%d link/plane/engine records", len(sink.links), len(sink.planes), len(sink.engines))
	}
	if l, p, e := sink.links[0], sink.planes[0], sink.engines[0]; l.Type != KindLink || p.Type != KindPlane ||
		e.Type != KindEngine || l.Net != 1 || p.Net != 1 || e.Net != 1 || l.TPs <= 0 || e.Events == 0 {
		t.Errorf("first records: %+v, %+v, %+v, want kinds filled in and net 1", l, p, e)
	}
}

// TestTraceLineMatchesPacketRecord pins the hand-built packet line of
// MetricsWriter.Packet to the PacketRecord schema struct: decoding a line
// into the struct and re-encoding it must agree field for field. The
// traced network attaches second, so its records must name net 1.
func TestTraceLineMatchesPacketRecord(t *testing.T) {
	g, p0, _ := twoPlane()
	var buf bytes.Buffer
	c := NewCollector()
	c.Trace = true
	c.StreamMetrics(&buf)
	idle := sim.NewEngine() // takes NetID 0, never runs
	c.AttachNetwork(idle, sim.NewNetwork(idle, g, sim.Config{}))
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{})
	c.AttachNetwork(eng, net)

	rs := &releaseSink{net: net}
	p := net.NewPacket()
	p.Size = 1500
	p.Route = p0
	p.Deliver = rs
	p.FlowID = 42
	p.Seq = 7
	net.Send(p)
	eng.Run()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	var lines []string
	for _, line := range nonEmptyLines(buf.String()) {
		if strings.HasPrefix(line, `{"type":"pkt"`) {
			lines = append(lines, line)
		}
	}
	if len(lines) == 0 {
		t.Fatal("no packet lines")
	}
	for _, line := range lines {
		var rec PacketRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("packet line does not decode into PacketRecord: %q: %v", line, err)
		}
		if rec.Type != KindPacket || rec.Ev == "" || rec.Net != 1 {
			t.Errorf("decoded record = %+v, want a packet event of net 1", rec)
		}
		if rec.Flow != 42 || rec.Seq != 7 || rec.Size != 1500 {
			t.Errorf("field mismatch: %+v from %q", rec, line)
		}
		// Re-encode and decode again: generic maps of both forms must
		// be identical, so the hand-built line carries exactly the
		// schema's fields.
		reenc, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var a, b map[string]any
		if err := json.Unmarshal([]byte(line), &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(reenc, &b); err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Errorf("hand-built line has fields the schema lacks (or vice versa):\n%q\n%q", line, reenc)
		}
		for k, v := range a {
			if bv, ok := b[k]; !ok || bv != v {
				t.Errorf("field %q: line %v vs schema %v", k, v, bv)
			}
		}
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	var h Histogram
	h.Observe(0) // lands in bucket 0, no panic
	h.Observe(-1)
	h.Observe(math.MaxFloat64) // clamps to last bucket
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	if q := h.Quantile(0.99); math.IsNaN(q) || math.IsInf(q, 0) {
		t.Errorf("quantile = %v", q)
	}
}

// TestNilCollectorIsSafe calls every method instrumented code calls
// unguarded (all but StreamMetrics) on a nil collector.
func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	if id := c.AttachNetwork(nil, nil); id != -1 {
		t.Errorf("nil collector attached a network as net %d", id)
	}
	c.RecordFlow(FlowRecord{Bytes: 1})
	c.RecordSolver(SolverRecord{Phases: 1})
	c.RecordFault(FaultRecord{Event: "inject"})
	if iv := c.EffectiveInterval(); iv != 0 {
		t.Errorf("nil collector samples every %v", iv)
	}
	if err := c.Close(); err != nil {
		t.Error(err)
	}
}

// releaseSink recycles delivered packets.
type releaseSink struct{ net *sim.Network }

func (r *releaseSink) HandlePacket(p *sim.Packet) { r.net.Release(p) }

// sinkFunc adapts a function to the packet handler interface.
type sinkFunc func(p *sim.Packet)

func (f sinkFunc) HandlePacket(p *sim.Packet) { f(p) }

// twoPlane builds a 2-host network with one switch per plane:
// host 0 - sw2 - host 1 on plane 0, host 0 - sw3 - host 1 on plane 1.
func twoPlane() (*graph.Graph, []graph.LinkID, []graph.LinkID) {
	g := graph.New(4)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	a0, _ := g.AddDuplex(0, 2, 100, 0)
	_, d0 := g.AddDuplex(1, 2, 100, 0)
	a1, _ := g.AddDuplex(0, 3, 100, 1)
	_, d1 := g.AddDuplex(1, 3, 100, 1)
	return g, []graph.LinkID{a0, d0}, []graph.LinkID{a1, d1}
}

// TestCollectorEndToEnd drives packets over a traced two-plane network
// and checks the JSONL stream: every line parses; packet events cover
// enqueue and deliver with sim timestamps and plane ids; link, plane,
// engine, flow and solver records are there too; and a Sink set beside
// the stream is handed as many records of each kind as the file holds.
func TestCollectorEndToEnd(t *testing.T) {
	g, p0, p1 := twoPlane()
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{})

	var mbuf bytes.Buffer
	c := NewCollector()
	c.Interval = sim.Microsecond
	c.Trace = true
	c.StreamMetrics(&mbuf)
	live := &sliceSink{}
	c.Sink = live
	c.AttachNetwork(eng, net)

	s := &releaseSink{net: net}
	for i := 0; i < 10; i++ {
		p := net.NewPacket()
		p.Size = 1500
		if i%2 == 0 {
			p.Route = p0
		} else {
			p.Route = p1
		}
		p.Deliver = s
		p.FlowID = int64(i % 2)
		net.Send(p)
	}
	eng.Run()

	c.RecordFlow(FlowRecord{ID: 1, Transport: "tcp", Bytes: 15000, FCT: 1e-5, Planes: []int32{0, 1}})
	c.RecordSolver(SolverRecord{Exp: "test", Solver: "gk-fixed", Phases: 3, Iterations: 10, WallSec: 0.01})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Every line parses; packet events cover enqueue and deliver on both
	// planes, with timestamps in sim picoseconds (monotone from 0); link,
	// plane, engine, flow and solver records all appear; link samples
	// carry link/plane ids.
	kinds := map[string]int{}
	evs := map[string]int{}
	planes := map[float64]bool{}
	lastT := -1.0
	for _, line := range nonEmptyLines(mbuf.String()) {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad metrics line %q: %v", line, err)
		}
		k := rec["type"].(string)
		kinds[k]++
		switch k {
		case KindPacket:
			evs[rec["ev"].(string)]++
			planes[rec["plane"].(float64)] = true
			tPs := rec["t_ps"].(float64)
			if tPs < lastT {
				t.Fatalf("packet timestamps not monotone: %v after %v", tPs, lastT)
			}
			lastT = tPs
		case KindLink:
			if _, ok := rec["link"]; !ok {
				t.Fatalf("link sample without link id: %q", line)
			}
			if _, ok := rec["plane"]; !ok {
				t.Fatalf("link sample without plane id: %q", line)
			}
			if rec["t_ps"].(float64) <= 0 {
				t.Fatalf("link sample without sim timestamp: %q", line)
			}
		}
	}
	if evs["enqueue"] == 0 || evs["deliver"] == 0 {
		t.Errorf("packet events = %v, want enqueue and deliver", evs)
	}
	if !planes[0] || !planes[1] {
		t.Errorf("planes seen = %v, want both", planes)
	}
	for _, want := range []string{"pkt", "link", "plane", "engine", "flow", "solver"} {
		if kinds[want] == 0 {
			t.Errorf("metrics stream has no %q records (got %v)", want, kinds)
		}
	}

	// The Sink beside the stream saw every record the file holds.
	if len(live.flows) != 1 || len(live.solvers) != 1 {
		t.Fatalf("sink records: %d flows, %d solver", len(live.flows), len(live.solvers))
	}
	if live.flows[0].FCT != 1e-5 || live.flows[0].Type != KindFlow || live.solvers[0].Type != KindSolver {
		t.Errorf("records = %+v, %+v", live.flows[0], live.solvers[0])
	}
	if len(live.links) != kinds["link"] || len(live.planes) != kinds["plane"] || len(live.engines) != kinds["engine"] ||
		len(live.packets) != kinds["pkt"] {
		t.Errorf("sink saw %d/%d/%d/%d link/plane/engine/pkt records, the file holds %d/%d/%d/%d",
			len(live.links), len(live.planes), len(live.engines), len(live.packets),
			kinds["link"], kinds["plane"], kinds["engine"], kinds["pkt"])
	}
}

// TestMultiNetworkTraceStaysWellFormed traces three networks into one
// stream at once, as parallel sweep cells do, with enough events to
// cross the writer's buffer many times. Every line must parse, every
// packet record must name its own engine's net (each network's packets
// carry that network's NetID as their flow ID), and time must never run
// backwards within a net. (Regressions: per-network buffered writers
// once interleaved lines mid-write, and packet lines once carried no net,
// so the engines of one run read as one engine whose clock jumps back.)
func TestMultiNetworkTraceStaysWellFormed(t *testing.T) {
	var mbuf bytes.Buffer
	c := NewCollector()
	c.Interval = sim.Millisecond
	c.Trace = true
	c.StreamMetrics(&mbuf)

	var wg sync.WaitGroup
	for n := 0; n < 3; n++ {
		g, p0, _ := twoPlane()
		eng := sim.NewEngine()
		net := sim.NewNetwork(eng, g, sim.Config{})
		id := int64(c.AttachNetwork(eng, net))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ { // ~3 events x ~100 B each, > 64 kB total
				sendPacket(net, p0, id)
			}
			eng.Run()
		}()
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if mbuf.Len() < 2<<16 {
		t.Fatalf("only %d stream bytes; test no longer exceeds the 64 kB writer buffer", mbuf.Len())
	}
	last := map[int]int64{}
	for _, line := range nonEmptyLines(mbuf.String()) {
		if !json.Valid([]byte(line)) {
			t.Fatalf("malformed line: %q", line)
		}
		if !strings.HasPrefix(line, `{"type":"pkt"`) {
			continue
		}
		var r PacketRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		if int64(r.Net) != r.Flow {
			t.Fatalf("a packet of net %d's engine names net %d: %q", r.Flow, r.Net, line)
		}
		if at, ok := last[r.Net]; ok && r.TPs < at {
			t.Fatalf("net %d: time runs backwards, %d after %d", r.Net, r.TPs, at)
		}
		last[r.Net] = r.TPs
	}
	if len(last) != 3 {
		t.Errorf("packet records of %d nets, want 3", len(last))
	}
}

// TestSamplerTerminates checks the sampler does not keep an otherwise
// finished simulation alive: Engine.Run returns even though the sampler
// reschedules itself while work remains.
func TestSamplerTerminates(t *testing.T) {
	g, p0, _ := twoPlane()
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{})
	series := &sliceSink{}
	s := NewSampler(eng, net, sim.Microsecond, series)
	s.Start()

	var delivered sim.Time
	sink := sinkFunc(func(p *sim.Packet) {
		delivered = eng.Now()
		net.Release(p)
	})
	p := net.NewPacket()
	p.Size = 1500
	p.Route = p0
	p.Deliver = sink
	net.Send(p)

	done := eng.RunUntil(sim.Second)
	if eng.HeapLen() != 0 {
		t.Fatalf("sampler left %d events pending after %d fired", eng.HeapLen(), done)
	}
	if len(series.engines) == 0 {
		t.Fatal("no engine samples recorded")
	}
	// At the 1 µs and 2 µs ticks the only other pending work is the packet
	// on a wire (120 ns to transmit, 1 µs to propagate, twice): an arrival
	// on the engine's lane, no heap entry. HeapLen has to count it, or the
	// sampler stops ticking before the delivery at 2.24 µs.
	if first := series.engines[0]; first.HeapLen != 1 {
		t.Errorf("HeapLen at the %v tick = %d, want 1 (the packet in flight)", sim.Time(first.TPs), first.HeapLen)
	}
	if last := series.engines[len(series.engines)-1]; delivered == 0 || sim.Time(last.TPs) < delivered {
		t.Errorf("last sample at %v, packet delivered at %v: the sampler stopped with a packet in flight", sim.Time(last.TPs), delivered)
	}
	for _, ls := range series.links {
		if ls.Util < 0 || ls.Util > 1.000001 {
			t.Errorf("link %d util = %v", ls.Link, ls.Util)
		}
	}
	// Stop after the run adds nothing: the closing record is only for a
	// sampler that never ticked.
	n := len(series.engines)
	s.Stop()
	if len(series.engines) != n {
		t.Errorf("Stop on a sampler that ticked emitted %d more engine records", len(series.engines)-n)
	}
}

// TestSamplerStoppedBeforeFirstTick: an engine that runs for less than
// one interval still reports itself once, at Stop, so a stream names
// every sampled network.
func TestSamplerStoppedBeforeFirstTick(t *testing.T) {
	g, p0, _ := twoPlane()
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{})
	series := &sliceSink{}
	s := NewSampler(eng, net, sim.Millisecond, series)
	s.NetID = 3
	s.Start()
	p := net.NewPacket()
	p.Size = 1500
	p.Route = p0
	p.Deliver = &releaseSink{net: net}
	net.Send(p)
	fired := eng.RunUntil(10 * sim.Microsecond)
	if len(series.engines) != 0 {
		t.Fatalf("sampler ticked %d times inside 10us at a 1ms interval", len(series.engines))
	}
	s.Stop()
	s.Stop()
	if len(series.engines) != 1 || len(series.links) != 0 || len(series.planes) != 0 {
		t.Fatalf("after Stop: %d/%d/%d engine/link/plane records, want 1/0/0",
			len(series.engines), len(series.links), len(series.planes))
	}
	if r := series.engines[0]; r.Net != 3 || r.Events != uint64(fired) || fired == 0 || r.TPs != int64(eng.Now()) {
		t.Errorf("closing record = %+v, want net 3, %d events, t = %v", r, fired, eng.Now())
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

// countSink counts records and keeps the last plane record per plane in
// place: a sink that cannot itself allocate.
type countSink struct {
	sliceSink // the five kinds a sampler never emits
	links     int
	engines   int
	flows     int
	planes    [samplerTestPlanes]PlaneRecord
}

// More planes than the eight entries of one map bucket: up to there the
// compiler keeps a tick-local map on the stack and a map-building tick
// passes the guard below while still paying for the hashing.
const samplerTestPlanes = 16

func (c *countSink) Link(LinkRecord)     { c.links++ }
func (c *countSink) Engine(EngineRecord) { c.engines++ }
func (c *countSink) Plane(r PlaneRecord) { c.planes[r.Plane] = r }
func (c *countSink) Flow(FlowRecord)     { c.flows++ }

// raceEnabled is set under -race (raceon_test.go).
var raceEnabled bool

// TestRecordFlowTeeZeroAlloc: with a metrics stream and a Sink both set, a
// record costs what handing it to the two costs and nothing for the road
// there. out() used to build a new Tee, one heap object, per record.
func TestRecordFlowTeeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops items at random, so encoding/json's allocation count varies")
	}
	c := NewCollector()
	c.StreamMetrics(io.Discard)
	live := &countSink{}
	c.Sink = live
	r := FlowRecord{ID: 1, Transport: "tcp", Bytes: 15000, FCT: 1e-5}

	stream, beside := NewMetricsWriter(io.Discard), &countSink{}
	direct := testing.AllocsPerRun(100, func() {
		rec := r
		rec.Type = KindFlow
		stream.Flow(rec)
		beside.Flow(rec)
	})
	if got := testing.AllocsPerRun(100, func() { c.RecordFlow(r) }); got != direct {
		t.Errorf("RecordFlow allocates %v a record, the two sinks called directly %v", got, direct)
	}
	if live.flows != 101 {
		t.Errorf("the sink saw %d flow records, want 101", live.flows)
	}
}

// TestSamplerTickZeroAlloc guards the sampler's tick: on a warm sampler
// it sorts and visits the links that moved and emits its records without
// allocating (no map of per-plane bytes, no closure, the sort in place),
// and the plane records it emits are the per-link TxBytes summed by
// plane. Every measured tick has all 32 links to visit, touched in
// descending order.
func TestSamplerTickZeroAlloc(t *testing.T) {
	const planes = samplerTestPlanes
	g := graph.New(2 + planes)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	eng := sim.NewEngine()
	var routes [planes][]graph.LinkID
	for pl := int32(0); pl < planes; pl++ {
		up, _ := g.AddDuplex(0, 2+graph.NodeID(pl), 100, pl)
		_, down := g.AddDuplex(1, 2+graph.NodeID(pl), 100, pl)
		routes[pl] = []graph.LinkID{up, down}
	}
	net := sim.NewNetwork(eng, g, sim.Config{})
	to := &releaseSink{net: net}
	for pl, route := range routes {
		for i := 0; i < pl; i++ { // a different load on every plane
			send(net, route, 1500, to)
		}
	}
	eng.Run()

	sink := &countSink{}
	s := NewSampler(eng, net, sim.Microsecond, sink)
	rounds := 0
	round := func() {
		for pl := planes - 1; pl >= 0; pl-- {
			send(net, routes[pl], 1500, to)
		}
		eng.Run()
		s.tick()
		rounds++
	}
	round() // a sampler attached late: every link is news against the zero baseline
	if sink.engines != 1 || sink.links != 2*planes {
		t.Fatalf("first tick emitted %d engine and %d link records, want 1 and %d", sink.engines, sink.links, 2*planes)
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("allocs per round of %d packets and a sampler tick = %v, want 0", planes, avg)
	}
	if sink.links != rounds*2*planes {
		t.Errorf("%d link records over %d ticks, want %d a tick", sink.links, rounds, 2*planes)
	}
	want := make([]int64, planes)
	for i := 0; i < g.NumLinks(); i++ {
		want[g.Link(graph.LinkID(i)).Plane] += net.Stats(graph.LinkID(i)).TxBytes
	}
	for pl, r := range sink.planes {
		if r.Plane != int32(pl) || r.TxBytes != want[pl] || r.TxBytes != int64(pl+rounds)*2*1500 {
			t.Errorf("plane %d record = %+v, want %d bytes (%d packets over two links)", pl, r, want[pl], pl+rounds)
		}
	}
}

// TestFormatHash: the hand-rolled rendering is %016x, and ParseHash
// inverts it.
func TestFormatHash(t *testing.T) {
	for _, h := range []uint64{0, 1, 0xf, 0xdeadbeef, 1 << 63, 0x0123456789abcdef, ^uint64(0)} {
		s := FormatHash(h)
		if want := fmt.Sprintf("%016x", h); s != want {
			t.Errorf("FormatHash(%#x) = %q, want %q", h, s, want)
		}
		if back, err := ParseHash(s); err != nil || back != h {
			t.Errorf("ParseHash(%q) = %#x, %v, want %#x", s, back, err, h)
		}
	}
}
