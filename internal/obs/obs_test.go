package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

// sliceSink keeps every record it is handed: what a test that wants the
// records attaches, since samplers and the collector retain nothing
// themselves. Not locked: for tests that run one engine at a time.
type sliceSink struct {
	links   []LinkRecord
	planes  []PlaneRecord
	engines []EngineRecord
	flows   []FlowRecord
	solvers []SolverRecord
	faults  []FaultRecord
	fps     []FingerprintRecord
}

func (s *sliceSink) Link(r LinkRecord)               { s.links = append(s.links, r) }
func (s *sliceSink) Plane(r PlaneRecord)             { s.planes = append(s.planes, r) }
func (s *sliceSink) Engine(r EngineRecord)           { s.engines = append(s.engines, r) }
func (s *sliceSink) Flow(r FlowRecord)               { s.flows = append(s.flows, r) }
func (s *sliceSink) Solver(r SolverRecord)           { s.solvers = append(s.solvers, r) }
func (s *sliceSink) Fault(r FaultRecord)             { s.faults = append(s.faults, r) }
func (s *sliceSink) Fingerprint(r FingerprintRecord) { s.fps = append(s.fps, r) }

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

// TestCheckpointsStreamBeforeClose: a fingerprinter's checkpoints reach
// the sink as their epochs close, each naming the event that closed it,
// so the collector holds none of them; Close adds only the engine's
// trailing partial checkpoint.
func TestCheckpointsStreamBeforeClose(t *testing.T) {
	g, route, _ := twoPlane()
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{})
	rec := &sliceSink{}
	c := NewCollector()
	c.Sink = rec
	c.Fingerprint = true
	c.FingerprintEpoch = 16
	c.AttachNetwork(eng, net)
	for i := 0; i < 10; i++ {
		pkt := net.NewPacket()
		pkt.Size = 1500
		pkt.Route = route
		pkt.Deliver = &releaseSink{net}
		pkt.FlowID = int64(i + 1)
		net.Send(pkt)
	}
	eng.Run()
	events := int64(eng.EventsFired())
	full := events / 16
	if full < 2 || events%16 == 0 {
		t.Fatalf("%d events: the scene needs two full epochs and a partial one", events)
	}
	if int64(len(rec.fps)) != full {
		t.Fatalf("%d checkpoints in the sink before Close, want the %d full epochs of %d events", len(rec.fps), full, events)
	}
	for i, r := range rec.fps {
		if r.Epoch != int64(i) || r.Events != 16*int64(i+1) || r.Final || r.Kind == "" || r.EpochEvents != 16 {
			t.Errorf("checkpoint %d before Close = %+v, want epoch %d closed by an event at %d events", i, r, i, 16*(i+1))
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if int64(len(rec.fps)) != full+1 {
		t.Fatalf("%d checkpoints after Close, want %d full and one partial", len(rec.fps), full)
	}
	if last := rec.fps[full]; !last.Final || last.Events != events || last.Epoch != full || last.Kind != "" {
		t.Errorf("checkpoint Close added = %+v, want the partial epoch %d at %d events, naming no event", last, full, events)
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

// TestCollectorEndToEnd drives packets over a two-plane network
// fingerprinted at one event per checkpoint and checks the JSONL stream:
// every line parses; the checkpoints name hop, deliver and tx events on
// both planes, in sim time order; link, plane, engine, flow and solver
// records are there too; and a Sink set beside the stream is handed as
// many records of each kind as the file holds.
func TestCollectorEndToEnd(t *testing.T) {
	g, p0, p1 := twoPlane()
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{})

	var mbuf bytes.Buffer
	c := NewCollector()
	c.Fingerprint = true
	c.FingerprintEpoch = 1
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

	// Every line parses; the checkpoints name hop, deliver and tx events
	// on both planes, with timestamps in sim picoseconds (monotone from
	// 0); link, plane, engine, flow and solver records all appear; link
	// samples carry link/plane ids.
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
		case KindFingerprint:
			evs[rec["kind"].(string)]++
			plane, _ := rec["plane"].(float64) // plane 0 is omitted
			planes[plane] = true
			tPs := rec["t_ps"].(float64)
			if tPs < lastT {
				t.Fatalf("checkpoint timestamps not monotone: %v after %v", tPs, lastT)
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
	if evs["hop"] == 0 || evs["deliver"] == 0 || evs["tx"] == 0 {
		t.Errorf("checkpoint events = %v, want hop, deliver and tx", evs)
	}
	if !planes[0] || !planes[1] {
		t.Errorf("planes seen = %v, want both", planes)
	}
	for _, want := range []string{KindFingerprint, KindLink, KindPlane, KindEngine, KindFlow, KindSolver} {
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
		len(live.fps) != kinds["fp"] {
		t.Errorf("sink saw %d/%d/%d/%d link/plane/engine/fp records, the file holds %d/%d/%d/%d",
			len(live.links), len(live.planes), len(live.engines), len(live.fps),
			kinds["link"], kinds["plane"], kinds["engine"], kinds["fp"])
	}
}

// TestMultiNetworkTraceStaysWellFormed streams three networks' per-event
// checkpoints (-fingerprint-epoch 1) into one stream at once, as parallel
// sweep cells do, with enough events to cross the writer's buffer many
// times. Every line must parse, every checkpoint must name its own
// engine's net (each network's packets carry that network's NetID as
// their flow ID, and each net's checkpoints count its events one by one,
// in sim time order). (Regressions: per-network buffered writers once
// interleaved lines mid-write, and per-event lines once carried no net,
// so the engines of one run read as one engine whose clock jumps back.)
func TestMultiNetworkTraceStaysWellFormed(t *testing.T) {
	var mbuf bytes.Buffer
	c := NewCollector()
	c.Fingerprint = true
	c.FingerprintEpoch = 1
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
			for i := 0; i < 500; i++ { // ~4 events x ~150 B each, > 128 kB total
				p := net.NewPacket()
				p.Size = 1500
				p.Route = p0
				p.Deliver = &releaseSink{net: net}
				p.FlowID = id
				net.Send(p)
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
	type seen struct{ events, tPs int64 }
	last := map[int]seen{}
	for _, line := range nonEmptyLines(mbuf.String()) {
		if !json.Valid([]byte(line)) {
			t.Fatalf("malformed line: %q", line)
		}
		if !strings.HasPrefix(line, `{"type":"fp"`) {
			continue
		}
		var r FingerprintRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		if (r.Kind == "hop" || r.Kind == "deliver") && int64(r.Net) != r.Flow {
			t.Fatalf("a packet of net %d's engine names net %d: %q", r.Flow, r.Net, line)
		}
		at := last[r.Net]
		if r.Events != at.events+1 {
			t.Fatalf("net %d: checkpoint at %d events after one at %d", r.Net, r.Events, at.events)
		}
		if r.TPs < at.tPs {
			t.Fatalf("net %d: time runs backwards, %d after %d", r.Net, r.TPs, at.tPs)
		}
		last[r.Net] = seen{r.Events, r.TPs}
	}
	if len(last) != 3 {
		t.Errorf("checkpoints of %d nets, want 3", len(last))
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
