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
			g := graph.New(3)
			g.SetTransit(0, false)
			g.SetTransit(1, false)
			up, _ := g.AddDuplex(0, 2, 100, 0)
			_, down := g.AddDuplex(1, 2, 100, 0)
			eng := sim.NewEngine()
			net := sim.NewNetwork(eng, g, sim.Config{})
			c.AttachNetwork(eng, net)
			for i := 0; i < perProducer; i++ {
				pkt := net.NewPacket()
				pkt.Size = 1500
				pkt.Route = []graph.LinkID{up, down}
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
	if len(c.Flows) != total || len(c.Solver) != total || len(c.Faults) != total {
		t.Fatalf("records = %d/%d/%d, want %d each", len(c.Flows), len(c.Solver), len(c.Faults), total)
	}
	if len(c.Samplers()) != producers {
		t.Fatalf("samplers = %d, want %d", len(c.Samplers()), producers)
	}
	live := aggr.Summarize(c, report.Meta{})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := report.ReadStream(&mbuf)
	if err != nil {
		t.Fatalf("shared stream does not parse: %v", err)
	}
	file := report.FromStream(st, report.Meta{})
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
