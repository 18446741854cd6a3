package obs_test

import (
	"bytes"
	"encoding/json"
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
	c.StreamMetrics(&mbuf)
	aggr := report.NewAggregator()
	c.Sink = aggr

	const producers = 8
	const perProducer = 200
	const tick = 10 * sim.Microsecond // the collector's sampling interval
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			eng, net, route := twoHosts()
			c.AttachNetwork(eng, net)
			// The sampler reschedules only while other work is pending; an
			// event past the last iteration keeps it ticking between packets.
			eng.At(perProducer*tick+tick/2, func() {})
			for i := 0; i < perProducer; i++ {
				pkt := net.NewPacket()
				pkt.Size = 1500
				pkt.Route = route
				pkt.Deliver = release{net}
				net.Send(pkt)
				// One sampler tick per iteration, interleaved with the record
				// producers below, each seeing the iteration's packet.
				eng.RunUntil(eng.Now() + tick)
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

// TestFingerprintNetIsEngineNet pins what `net` means: every record of
// one engine carries the NetID AttachNetwork gave it, fingerprint
// checkpoints included. Network 0 attaches before fingerprinting is
// switched on, so a checkpoint numbered by anything but the network's own
// id names the wrong engine. Each engine runs to a different sim time,
// and a run-to-completion ends on the sampler's last tick, which is also
// the last event folded, so an engine is recognisable in both kinds: its
// last checkpoint's t_ps is its last engine record's. Serial and with the
// eight attaches racing.
func TestFingerprintNetIsEngineNet(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var mbuf bytes.Buffer
		c := obs.NewCollector()
		c.StreamMetrics(&mbuf)
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
		c.Fingerprint = true
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
		for _, r := range records[obs.EngineRecord](t, &mbuf, obs.KindEngine) {
			lastTick[r.Net] = r.TPs
		}
		lastFold := map[int]int64{}
		for _, r := range records[obs.FingerprintRecord](t, &mbuf, obs.KindFingerprint) {
			lastFold[r.Net] = r.TPs
		}
		for net, at := range lastFold {
			if tick, ok := lastTick[net]; !ok || at != tick {
				t.Errorf("workers=%d: net %d's last checkpoint is at %d ps, but that net's engine records end at %d", workers, net, at, tick)
			}
		}
		if _, fp0 := lastFold[0]; len(lastTick) != engines+1 || len(lastFold) != engines || fp0 {
			t.Errorf("workers=%d: %d sampled and %d fingerprinted networks (net 0 fingerprinted: %v), want %d and %d, not net 0",
				workers, len(lastTick), len(lastFold), fp0, engines+1, engines)
		}
	}
}

// records decodes the lines of one record kind in a metrics stream.
func records[R any](t *testing.T, stream *bytes.Buffer, kind string) []R {
	t.Helper()
	var out []R
	for _, line := range bytes.Split(stream.Bytes(), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`{"type":"`+kind+`"`)) {
			continue
		}
		var r R
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("bad %s line %q: %v", kind, line, err)
		}
		out = append(out, r)
	}
	return out
}
