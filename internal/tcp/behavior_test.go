package tcp

import (
	"testing"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

func TestRTOBackoffDoubles(t *testing.T) {
	// Break the path mid-flow by downing the forward link; timeouts must
	// back off exponentially (bounded), and restoring the link must let
	// the flow finish.
	g := graph.New(3)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	g.AddDuplex(0, 2, 100, 0)
	g.AddDuplex(1, 2, 100, 0)
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{})
	p := graph.KShortestPathsMasked(g, 0, 1, 1, nil)[0]
	f, _ := NewFlow(net, Config{}, []graph.Path{p}, 30_000)
	f.Start()

	// After a short time, "fail" by saturating nothing — instead check
	// backoff growth directly through repeated forced timeouts.
	sf := f.subs[0]
	eng.RunUntil(100 * sim.Microsecond)
	if !f.Done() {
		t.Fatal("clean 20-packet flow should be done in 100us")
	}
	if sf.backoff != 0 {
		t.Errorf("backoff = %d after clean run", sf.backoff)
	}

	// Fresh flow with a black-holed path: packets enqueue to a downed
	// link? Downing before sending makes trySend panic-free but packets
	// just sit; instead simulate ack loss with a 64B-only queue so data
	// drops at once.
	eng2 := sim.NewEngine()
	net2 := sim.NewNetwork(eng2, g, sim.Config{QueueBytes: 64})
	f2, _ := NewFlow(net2, Config{}, []graph.Path{p}, 3000)
	f2.Start()
	eng2.RunUntil(200 * sim.Millisecond)
	sf2 := f2.subs[0]
	if f2.Done() {
		t.Fatal("flow completed through a queue that can't fit data")
	}
	if sf2.backoff < 3 {
		t.Errorf("backoff = %d after repeated timeouts, want >= 3", sf2.backoff)
	}
	if sf2.backoff > 6 {
		t.Errorf("backoff = %d exceeds cap", sf2.backoff)
	}
}

func TestMPTCPSchedulerBalancesEqualPaths(t *testing.T) {
	// On two symmetric paths, the packet split should be near 50/50.
	eng, net, paths := twoPlane(100)
	f, _ := NewFlow(net, Config{}, paths, 10_000_000)
	f.Start()
	eng.RunUntil(20 * sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	a := f.subs[0].sndMax
	b := f.subs[1].sndMax
	total := a + b
	if total < f.SizePkts {
		t.Fatalf("assigned %d < size %d", total, f.SizePkts)
	}
	ratio := float64(a) / float64(total)
	if ratio < 0.35 || ratio > 0.65 {
		t.Errorf("subflow split %d/%d (%.2f), want near even", a, b, ratio)
	}
}

func TestFlowFCTAndSubflows(t *testing.T) {
	eng, net, paths := twoPlane(100)
	f, _ := NewFlow(net, Config{}, paths, 1500)
	if f.Subflows() != 2 {
		t.Errorf("subflows = %d", f.Subflows())
	}
	runFlow(t, eng, f)
	if f.FCT() <= 0 || f.Finished <= f.Started {
		t.Errorf("FCT bookkeeping wrong: %v", f.FCT())
	}
	if f.DeliveredPkts() != f.SizePkts {
		t.Errorf("delivered = %d of %d", f.DeliveredPkts(), f.SizePkts)
	}
}
