package tcp

import (
	"testing"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MTU != 1500 || c.InitCwnd != 10 || c.DupAckThresh != 3 {
		t.Errorf("defaults = %+v", c)
	}
	// Explicit values survive.
	c2 := Config{MTU: 9000, InitCwnd: 2}.withDefaults()
	if c2.MTU != 9000 || c2.InitCwnd != 2 {
		t.Errorf("overrides lost: %+v", c2)
	}
}

func TestMTUAffectsPacketCount(t *testing.T) {
	_, net, p := dumbbell(100, sim.Config{})
	f, _ := NewFlow(net, Config{MTU: 9000}, []graph.Path{p}, 90_000)
	if f.SizePkts != 10 {
		t.Errorf("SizePkts = %d, want 10 at 9k MTU", f.SizePkts)
	}
	f2, _ := NewFlow(net, Config{}, []graph.Path{p}, 90_000)
	if f2.SizePkts != 60 {
		t.Errorf("SizePkts = %d, want 60 at default MTU", f2.SizePkts)
	}
}

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
	p, _ := graph.ShortestPath(g, 0, 1)
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

func TestDupAckThresholdConfigurable(t *testing.T) {
	// With DupAckThresh high enough, a single loss must be repaired by
	// RTO instead of fast retransmit.
	eng, net, p := dumbbell(100, sim.Config{QueueBytes: 4 * 1500})
	f, _ := NewFlow(net, Config{InitCwnd: 16, DupAckThresh: 1000}, []graph.Path{p}, 30_000)
	fct := runFlow(t, eng, f)
	if net.TotalDrops() == 0 {
		t.Skip("no drop produced; nothing to verify")
	}
	if fct < 10*sim.Millisecond {
		t.Errorf("FCT = %v: loss repaired without RTO despite threshold", fct)
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

func TestUncoupledConfig(t *testing.T) {
	// Uncoupled subflows in congestion avoidance grow like independent
	// NewReno: after forcing CA (low ssthresh), each increase is 1/cwnd.
	eng, net, paths := twoPlane(100)
	f, _ := NewFlow(net, Config{Uncoupled: true}, paths, 1_000_000)
	for _, sf := range f.subs {
		sf.ssthresh = 1 // force congestion avoidance from the start
	}
	f.Start()
	eng.RunUntil(sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	_ = f
}
