package ndp

import (
	"testing"

	"pnet/internal/graph"
	"pnet/internal/route"
	"pnet/internal/sim"
	"pnet/internal/topo"
)

// ndpNet builds a network with NDP trimming enabled (queue 8 packets, as
// in the NDP paper).
func ndpNet(g *graph.Graph) (*sim.Engine, *sim.Network) {
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{
		QueueBytes:  8 * 1500,
		TrimToBytes: 64,
	})
	return eng, net
}

func star(hosts int) (*graph.Graph, graph.NodeID) {
	g := graph.New(hosts + 1)
	sw := graph.NodeID(hosts)
	for i := 0; i < hosts; i++ {
		g.SetTransit(graph.NodeID(i), false)
		g.AddDuplex(graph.NodeID(i), sw, 100, 0)
	}
	return g, sw
}

func TestNDPValidation(t *testing.T) {
	g, _ := star(2)
	_, net := ndpNet(g)
	if _, err := NewFlow(net, nil, 1000); err == nil {
		t.Error("no error for empty paths")
	}
	p := graph.KShortestPathsMasked(g, 0, 1, 1, nil)[0]
	if _, err := NewFlow(net, []graph.Path{p}, 0); err == nil {
		t.Error("no error for zero size")
	}
}

func TestNDPSingleTransfer(t *testing.T) {
	g, _ := star(2)
	eng, net := ndpNet(g)
	p := graph.KShortestPathsMasked(g, 0, 1, 1, nil)[0]
	f, err := NewFlow(net, []graph.Path{p}, 1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	f.OnComplete = func(*Flow) { done = true }
	f.Start()
	eng.RunUntil(sim.Second)
	if !done || !f.delivered {
		t.Fatalf("flow incomplete: got %d of %d", f.gotCount, f.SizePkts)
	}
	// Pull-clocked line rate: 1000 packets at 120 ns plus a few RTTs.
	if fct := f.Finished - f.Started; fct > 2*sim.Millisecond {
		t.Errorf("FCT = %v, want ~120us-ish", fct)
	}
}

func TestNDPSpraysAcrossPlanes(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, tp.G, sim.Config{QueueBytes: 8 * 1500, TrimToBytes: 64})
	paths := route.AcrossPlanes(tp.G, tp.G.PlaneMasks(), []route.Commodity{{Src: tp.Hosts[0], Dst: tp.Hosts[15], Demand: 1}}, 4, nil)
	f, err := NewFlow(net, paths[0], 600_000)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	eng.RunUntil(sim.Second)
	if !f.delivered {
		t.Fatal("flow incomplete")
	}
	// Per-packet spraying must put bytes on both planes.
	bytes := map[int32]int64{}
	for i := 0; i < net.G.NumLinks(); i++ {
		id := graph.LinkID(i)
		bytes[net.G.Link(id).Plane] += net.Stats(id).TxBytes
	}
	if bytes[0] == 0 || bytes[1] == 0 {
		t.Errorf("spray imbalance: plane bytes %v", bytes)
	}
	ratio := float64(bytes[0]) / float64(bytes[1])
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("spray ratio = %.2f, want near 1", ratio)
	}
}

func TestNDPIncastNoTimeouts(t *testing.T) {
	// 16-to-1 incast into an 8-packet queue: TCP would lose whole
	// windows; NDP's trimming and pulls complete near the drain-rate
	// optimum with zero drops.
	const fanIn = 16
	g, _ := star(fanIn + 1)
	eng, net := ndpNet(g)
	done := 0
	var last sim.Time
	for i := 1; i <= fanIn; i++ {
		p := graph.KShortestPathsMasked(g, graph.NodeID(i), 0, 1, nil)[0]
		f, err := NewFlow(net, []graph.Path{p}, 256_000)
		if err != nil {
			t.Fatal(err)
		}
		f.OnComplete = func(fl *Flow) {
			done++
			last = eng.Now()
		}
		f.Start()
	}
	eng.RunUntil(sim.Second)
	if done != fanIn {
		t.Fatalf("%d of %d flows done", done, fanIn)
	}
	// Drain-rate floor: 16 x 171 pkts x 120 ns ≈ 329 µs.
	floor := 329 * sim.Microsecond
	if last > 2*floor {
		t.Errorf("incast completion %v, want < 2x floor %v (no timeout cliff)", last, floor)
	}
	if drops := net.TotalDrops(); drops != 0 {
		t.Errorf("drops = %d with trimming enabled, want 0", drops)
	}
}

func TestNDPSurvivesControlLoss(t *testing.T) {
	// A brutal 1-packet queue trims/drops aggressively, including
	// control packets; the backstop timer must still finish the flow.
	g, _ := star(2)
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{QueueBytes: 3000, TrimToBytes: 64})
	p := graph.KShortestPathsMasked(g, 0, 1, 1, nil)[0]
	f, _ := NewFlow(net, []graph.Path{p}, 60_000)
	f.Start()
	eng.RunUntil(5 * sim.Second)
	if !f.delivered {
		t.Fatalf("flow incomplete: %d of %d", f.gotCount, f.SizePkts)
	}
}

func TestNDPBackstopRestartsAfterOutage(t *testing.T) {
	// Cut the only path mid-transfer: the credit clock dies with it and
	// only the backstop timer (4ms default) can restart the flow after
	// the link heals at 10ms.
	g, _ := star(2)
	eng, net := ndpNet(g)
	p := graph.KShortestPathsMasked(g, 0, 1, 1, nil)[0]
	setPath := func(up bool) {
		for _, id := range p.Links {
			net.SetLinkUp(id, up)
			if rid, ok := net.G.ReverseLink(id); ok {
				net.SetLinkUp(rid, up)
			}
		}
	}
	f, err := NewFlow(net, []graph.Path{p}, 1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	eng.At(20*sim.Microsecond, func() { setPath(false) })
	eng.At(10*sim.Millisecond, func() { setPath(true) })
	eng.RunUntil(5 * sim.Second)
	if !f.delivered {
		t.Fatal("flow incomplete after the link healed")
	}
	if f.Finished <= 10*sim.Millisecond {
		t.Errorf("finished at %v, before the path healed at 10ms", f.Finished)
	}
}

func TestNDPTrimsReported(t *testing.T) {
	const fanIn = 8
	g, _ := star(fanIn + 1)
	eng, net := ndpNet(g)
	var flows []*Flow
	for i := 1; i <= fanIn; i++ {
		p := graph.KShortestPathsMasked(g, graph.NodeID(i), 0, 1, nil)[0]
		f, _ := NewFlow(net, []graph.Path{p}, 150_000)
		flows = append(flows, f)
		f.Start()
	}
	eng.RunUntil(sim.Second)
	var trims int64
	for _, f := range flows {
		if !f.delivered {
			t.Fatal("flow incomplete")
		}
		trims += f.Trims
	}
	if trims == 0 {
		t.Error("expected trims under incast with 8-packet queues")
	}
	// Link stats should agree that trims happened somewhere.
	var statTrims int64
	for i := 0; i < net.G.NumLinks(); i++ {
		statTrims += net.Stats(graph.LinkID(i)).Trims
	}
	if statTrims == 0 {
		t.Error("no trims in link stats")
	}
}
