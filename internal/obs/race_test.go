package obs_test

import (
	"bytes"
	"sync"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/obs"
	"pnet/internal/report"
	"pnet/internal/sim"
)

// The parallel sweep harness points many concurrently-running experiment
// cells at one shared Collector. This test hammers that surface from many
// goroutines; run with -race (CI does) it is the proof that the
// concurrent-producer contract in the package doc holds.

type release struct{ net *sim.Network }

func (r release) HandlePacket(p *sim.Packet) { r.net.Release(p) }

// twoHosts builds a fresh engine and a network of two hosts joined by one
// switch, and returns the host-to-host route (2.24 us for a 1500 B packet).
func twoHosts() (*sim.Engine, *sim.Network, []graph.LinkID) {
	g := graph.New(3)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	up, _ := g.AddDuplex(0, 2, 100, 0)
	_, down := g.AddDuplex(1, 2, 100, 0)
	eng := sim.NewEngine()
	return eng, sim.NewNetwork(eng, g, sim.Config{}), []graph.LinkID{up, down}
}

// TestCollectorConcurrentStress is `pnetbench -workers 8 -metrics
// -report` in miniature: eight cells attach a network each, tick their
// samplers into the one stream and the one Aggregator (through the tee),
// and record flows, solver calls and faults, all at once. Afterwards the
// stream must parse line for line and summarize to what the Aggregator
// saw live.
func TestCollectorConcurrentStress(t *testing.T) {
	var mbuf bytes.Buffer
	c := obs.NewCollector()
	c.Interval = sim.Microsecond
	c.StreamMetrics(&mbuf)
	aggr := report.NewAggregator()
	c.Sink = aggr

	const producers = 8
	const perProducer = 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			eng, net, route := twoHosts()
			c.AttachNetwork(eng, net)
			for i := 0; i < perProducer; i++ {
				pkt := net.NewPacket()
				pkt.Size = 1500
				pkt.Route = route
				pkt.Deliver = release{net}
				net.Send(pkt)
				// One sampler tick per iteration, interleaved with the record
				// producers below. A packet takes 2.24 us, so one is always
				// in flight and the sampler keeps rescheduling.
				eng.RunUntil(eng.Now() + sim.Microsecond)
				c.RecordFlow(obs.FlowRecord{
					ID: int64(p*perProducer + i), Transport: "tcp",
					Bytes: 1500, FCT: float64(i+1) * 1e-6, Planes: []int32{int32(p % 4)},
				})
				c.RecordSolver(obs.SolverRecord{
					Exp: "stress", Solver: "gk-fixed",
					Phases: 3, Iterations: 17, Attempts: 1, WallSec: 1e-4,
				})
				c.RecordFault(obs.FaultRecord{Net: p, Event: "detect", LatencySec: 1e-3})
			}
			eng.Run()
		}(p)
	}
	wg.Wait()

	const total = producers * perProducer
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	live := aggr.Summarize(report.Meta{})
	fromFile := report.NewAggregator()
	if err := report.ReadStream(&mbuf, fromFile); err != nil {
		t.Fatalf("shared stream does not parse: %v", err)
	}
	file := fromFile.Summarize(report.Meta{})
	if live.Flows != total || live.Solver.Calls != total || live.Faults == nil || live.Faults.Detected != total {
		t.Errorf("live summary: %d flows, %d solver calls, faults %+v", live.Flows, live.Solver.Calls, live.Faults)
	}
	// At least one link record per iteration: the samplers really did tick
	// alongside the record producers.
	if live.Engine.Networks != producers || live.Engine.Events == 0 || live.LinkUtil.Count < total {
		t.Errorf("live engine = %+v, %d link samples", live.Engine, live.LinkUtil.Count)
	}
	if file.Engine.Networks != live.Engine.Networks || file.Engine.Events != live.Engine.Events ||
		file.LinkUtil != live.LinkUtil || file.Flows != live.Flows || file.FCT != live.FCT {
		t.Errorf("stream and live summaries disagree:\nfile: %+v\nlive: %+v", file, live)
	}
}

// TestProfileNetIsEngineNet pins what `net` means: every record of one
// engine carries the NetID AttachNetwork gave it, profile bins included.
// Network 0 attaches before profiling is switched on, so a profile record
// numbered by anything but the network's own id (a recorder sequence of
// its own, as there once was) names the wrong engine. Each engine runs to
// a different sim time, and a run-to-completion ends on the sampler's last
// tick, so an engine is recognisable in both kinds: its profile bins'
// sim_ps is its last engine record's t_ps. Serial and with the eight
// attaches racing.
func TestProfileNetIsEngineNet(t *testing.T) {
	for _, workers := range []int{1, 8} {
		rec := &report.Stream{}
		c := obs.NewCollector()
		c.Interval = sim.Microsecond
		c.Sink = rec
		run := func(i int) {
			eng, net, route := twoHosts()
			c.AttachNetwork(eng, net)
			eng.After(sim.Time(i)*10*sim.Microsecond, func() {
				pkt := net.NewPacket()
				pkt.Size = 1500
				pkt.Route = route
				pkt.Deliver = release{net}
				net.Send(pkt)
			})
			eng.Run()
		}
		run(0)
		c.Spans = true
		const engines = 8
		var wg sync.WaitGroup
		slots := make(chan struct{}, workers)
		for i := 1; i <= engines; i++ {
			wg.Add(1)
			slots <- struct{}{}
			go func(i int) {
				defer wg.Done()
				run(i)
				<-slots
			}(i)
		}
		wg.Wait()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		lastTick := map[int]int64{}
		for _, r := range rec.Engines {
			lastTick[r.Net] = r.TPs
		}
		profiled := map[int]bool{}
		for _, r := range rec.Profiles {
			profiled[r.Net] = true
			if at, ok := lastTick[r.Net]; !ok || r.SimPs != at {
				t.Errorf("workers=%d: profile record net %d has sim_ps %d, but that net's engine records end at %d: %+v",
					workers, r.Net, r.SimPs, at, r)
			}
		}
		if len(lastTick) != engines+1 || len(profiled) != engines || profiled[0] {
			t.Errorf("workers=%d: %d sampled and %d profiled networks (net 0 profiled: %v), want %d and %d, not net 0",
				workers, len(lastTick), len(profiled), profiled[0], engines+1, engines)
		}
	}
}

// TestCheckpointsStreamBeforeClose: a fingerprinter's checkpoints reach
// the sink as their epochs close, each naming the event that closed it,
// so the collector holds none of them; Close adds only the engine's
// trailing partial checkpoint.
func TestCheckpointsStreamBeforeClose(t *testing.T) {
	rec := &report.Stream{}
	c := obs.NewCollector()
	c.Interval = sim.Microsecond
	c.Sink = rec
	c.Fingerprint = true
	c.FingerprintEpoch = 16
	eng, net, route := twoHosts()
	c.AttachNetwork(eng, net)
	for i := 0; i < 10; i++ {
		pkt := net.NewPacket()
		pkt.Size = 1500
		pkt.Route = route
		pkt.Deliver = release{net}
		pkt.FlowID = int64(i + 1)
		net.Send(pkt)
	}
	eng.Run()
	events := int64(eng.EventsFired())
	full := events / 16
	if full < 2 || events%16 == 0 {
		t.Fatalf("%d events: the scene needs two full epochs and a partial one", events)
	}
	if int64(len(rec.Fingerprints)) != full {
		t.Fatalf("%d checkpoints in the sink before Close, want the %d full epochs of %d events", len(rec.Fingerprints), full, events)
	}
	for i, r := range rec.Fingerprints {
		if r.Epoch != int64(i) || r.Events != 16*int64(i+1) || r.Final || r.Kind == "" || r.EpochEvents != 16 {
			t.Errorf("checkpoint %d before Close = %+v, want epoch %d closed by an event at %d events", i, r, i, 16*(i+1))
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if int64(len(rec.Fingerprints)) != full+1 {
		t.Fatalf("%d checkpoints after Close, want %d full and one partial", len(rec.Fingerprints), full)
	}
	if last := rec.Fingerprints[full]; !last.Final || last.Events != events || last.Epoch != full || last.Kind != "" {
		t.Errorf("checkpoint Close added = %+v, want the partial epoch %d at %d events, naming no event", last, full, events)
	}
}
