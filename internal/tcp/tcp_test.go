package tcp

import (
	"math"
	"testing"
	"unsafe"

	"pnet/internal/graph"
	"pnet/internal/route"
	"pnet/internal/sim"
	"pnet/internal/topo"
)

// dumbbell returns a 2-host network joined through one switch with
// speed-Gb/s links, plus the forward path.
func dumbbell(speed float64, cfg sim.Config) (*sim.Engine, *sim.Network, graph.Path) {
	g := graph.New(3)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	g.AddDuplex(0, 2, speed, 0)
	g.AddDuplex(1, 2, speed, 0)
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, cfg)
	p, ok := graph.ShortestPath(g, 0, 1)
	if !ok {
		panic("no path")
	}
	return eng, net, p
}

// twoPlane returns a 2-host network with two disjoint single-switch paths.
func twoPlane(speed float64) (*sim.Engine, *sim.Network, []graph.Path) {
	g := graph.New(4)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	g.AddDuplex(0, 2, speed, 0)
	g.AddDuplex(2, 1, speed, 0)
	g.AddDuplex(0, 3, speed, 1)
	g.AddDuplex(3, 1, speed, 1)
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{})
	paths := route.KSPPaths(g, []route.Commodity{{Src: 0, Dst: 1, Demand: 1}}, 2)[0]
	if len(paths) != 2 {
		panic("expected 2 paths")
	}
	return eng, net, paths
}

func runFlow(t *testing.T, eng *sim.Engine, f *Flow) sim.Time {
	t.Helper()
	f.Start()
	eng.RunUntil(20 * sim.Second)
	if !f.Done() {
		t.Fatalf("flow did not complete (acked/assigned=%d/%d of %d)",
			f.rcvd, f.assigned, f.SizePkts)
	}
	return f.FCT()
}

func TestNewFlowValidation(t *testing.T) {
	_, net, p := dumbbell(100, sim.Config{})
	if _, err := NewFlow(net, Config{}, nil, 1000); err == nil {
		t.Error("no error for empty path set")
	}
	if _, err := NewFlow(net, Config{}, []graph.Path{p}, 0); err == nil {
		t.Error("no error for zero size")
	}
	rev, _ := graph.ReversePath(net.G, p)
	if _, err := NewFlow(net, Config{}, []graph.Path{p, rev}, 1000); err == nil {
		t.Error("no error for mismatched endpoints")
	}
}

// TestOnePathFlowSize: a one-path flow's one allocation fits the 512-byte
// size class; the next class up costs every flow 64 more bytes of
// allocation and the collector the cycles that go with them.
func TestOnePathFlowSize(t *testing.T) {
	if n := unsafe.Sizeof(onePathFlow{}); n > 512 {
		t.Errorf("onePathFlow is %d bytes, over the 512-byte size class", n)
	}
}

func TestSinglePacketFlow(t *testing.T) {
	eng, net, p := dumbbell(100, sim.Config{PropDelay: 500 * sim.Nanosecond})
	f, err := NewFlow(net, Config{}, []graph.Path{p}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if f.SizePkts != 1 {
		t.Fatalf("SizePkts = %d", f.SizePkts)
	}
	fct := runFlow(t, eng, f)
	// Data: 2 hops × (120 ns tx + 500 ns prop) = 1240 ns.
	// ACK: 2 hops × (5.12 ns tx + 500 ns prop) ≈ 1010 ns.
	want := 2250 * sim.Nanosecond
	if fct < want-20*sim.Nanosecond || fct > want+20*sim.Nanosecond {
		t.Errorf("FCT = %v, want ≈%v", fct, want)
	}
	if f.Retransmits != 0 {
		t.Errorf("retransmits = %d", f.Retransmits)
	}
}

func TestOnDeliveredBeforeOnComplete(t *testing.T) {
	eng, net, p := dumbbell(100, sim.Config{})
	f, _ := NewFlow(net, Config{}, []graph.Path{p}, 3000)
	var deliveredAt, completedAt sim.Time
	f.OnDelivered = func(*Flow) { deliveredAt = eng.Now() }
	f.OnComplete = func(*Flow) { completedAt = eng.Now() }
	runFlow(t, eng, f)
	if deliveredAt == 0 || completedAt == 0 {
		t.Fatal("callbacks not fired")
	}
	if deliveredAt >= completedAt {
		t.Errorf("delivered at %v, completed at %v", deliveredAt, completedAt)
	}
}

func TestBulkThroughputNearLineRate(t *testing.T) {
	// 10 MB over a clean 100G path: FCT should approach the 800 µs
	// serialization floor once slow start finishes.
	eng, net, p := dumbbell(100, sim.Config{})
	f, _ := NewFlow(net, Config{}, []graph.Path{p}, 10_000_000)
	fct := runFlow(t, eng, f)
	floor := sim.Time(f.SizePkts) * 120 * sim.Nanosecond
	if fct < floor {
		t.Fatalf("FCT %v below serialization floor %v", fct, floor)
	}
	if fct > 2*floor {
		t.Errorf("FCT %v more than 2x floor %v: transport too slow", fct, floor)
	}
	// Slow start legitimately overshoots the buffer once; losses must
	// stay a small fraction of the transfer.
	if f.Retransmits > f.SizePkts/20 {
		t.Errorf("retransmits = %d of %d packets", f.Retransmits, f.SizePkts)
	}
}

func TestSlowStartGrowth(t *testing.T) {
	// With init cwnd 1 and no losses, cwnd doubles per RTT in slow start.
	eng, net, p := dumbbell(100, sim.Config{})
	f, _ := NewFlow(net, Config{InitCwnd: 1}, []graph.Path{p}, 100*1500)
	f.Start()
	// After a few RTTs the window should have grown well past 1.
	eng.RunUntil(20 * sim.Microsecond)
	if f.subs[0].cwnd < 4 {
		t.Errorf("cwnd = %v after 20us, want >= 4", f.subs[0].cwnd)
	}
	eng.RunUntil(20 * sim.Second)
	if !f.Done() {
		t.Fatal("flow stuck")
	}
}

func TestSACKBeatsNewRenoOnBurstLoss(t *testing.T) {
	// Slow-start overshoot drops a burst of packets. SACK repairs one
	// hole per ACK; NewReno repairs one hole per RTT. The transfer must
	// finish faster and with no spurious retransmissions under SACK.
	run := func(noSACK bool) (sim.Time, int64, int64) {
		eng, net, p := dumbbell(100, sim.Config{})
		f, _ := NewFlow(net, Config{NoSACK: noSACK}, []graph.Path{p}, 10_000_000)
		fct := runFlow(t, eng, f)
		return fct, f.Retransmits, net.TotalDrops()
	}
	sackFCT, sackRxt, sackDrops := run(false)
	renoFCT, _, _ := run(true)
	if sackFCT >= renoFCT {
		t.Errorf("SACK FCT %v >= NewReno FCT %v", sackFCT, renoFCT)
	}
	// With per-path FIFO, SACK repair is exact: every retransmission
	// corresponds to a genuine drop (plus at most a handful of RTO-driven
	// go-back-N resends).
	if sackRxt > sackDrops+20 {
		t.Errorf("SACK retransmits %d far exceed drops %d (spurious repair)",
			sackRxt, sackDrops)
	}
}

func TestFastRetransmitRecoversLoss(t *testing.T) {
	// A queue of 8 packets with init cwnd 64 forces drops; the flow must
	// still complete, using fast retransmit rather than only timeouts.
	eng, net, p := dumbbell(100, sim.Config{QueueBytes: 8 * 1500})
	f, _ := NewFlow(net, Config{InitCwnd: 64}, []graph.Path{p}, 200*1500)
	fct := runFlow(t, eng, f)
	if f.Retransmits == 0 {
		t.Error("expected retransmits with a tiny queue")
	}
	if net.TotalDrops() == 0 {
		t.Error("expected drops")
	}
	// Fast retransmit should keep FCT well under an RTO-dominated run.
	if fct > 100*sim.Millisecond {
		t.Errorf("FCT = %v: loss recovery appears RTO-bound", fct)
	}
}

func TestRTORecoversTailLoss(t *testing.T) {
	// Drop-everything-then-heal scenario is hard to stage without fault
	// hooks; instead verify the RTO floor: a 2-packet flow through a
	// 1-packet queue loses the second packet (no dupacks possible) and
	// must wait ~10 ms for the timeout.
	eng, net, p := dumbbell(100, sim.Config{QueueBytes: 1500})
	f, _ := NewFlow(net, Config{}, []graph.Path{p}, 2*1500)
	fct := runFlow(t, eng, f)
	if fct < 10*sim.Millisecond {
		t.Errorf("FCT = %v, want >= RTOMin 10ms", fct)
	}
	if fct > 30*sim.Millisecond {
		t.Errorf("FCT = %v, want a single RTO", fct)
	}
	if net.TotalDrops() != 1 {
		t.Errorf("drops = %d, want 1", net.TotalDrops())
	}
}

func TestMPTCPUsesBothPlanes(t *testing.T) {
	// 10 MB over two disjoint 100G paths finishes faster than a single
	// path. Coupled (LIA) MPTCP is deliberately conservative — it grows
	// the aggregate window like ONE TCP (the paper's §5.1.2 note that
	// MPTCP is slow to probe at small time scales) — so only the
	// uncoupled variant approaches the full 2x.
	mptcpFCT := func(uncoupled bool) sim.Time {
		eng, net, paths := twoPlane(100)
		_ = net
		mp, _ := NewFlow(net, Config{Uncoupled: uncoupled}, paths, 10_000_000)
		return runFlow(t, eng, mp)
	}
	eng1, net1, p := dumbbell(100, sim.Config{})
	single, _ := NewFlow(net1, Config{}, []graph.Path{p}, 10_000_000)
	singleFCT := runFlow(t, eng1, single)
	_ = net1

	coupled := float64(singleFCT) / float64(mptcpFCT(false))
	uncoupled := float64(singleFCT) / float64(mptcpFCT(true))
	if coupled < 1.25 {
		t.Errorf("coupled MPTCP speedup = %.2f, want > 1.25", coupled)
	}
	if uncoupled < 1.6 {
		t.Errorf("uncoupled MPTCP speedup = %.2f, want ~2", uncoupled)
	}
	if uncoupled < coupled {
		t.Errorf("uncoupled (%.2f) should beat coupled (%.2f) on disjoint paths",
			uncoupled, coupled)
	}
}

func TestMPTCPSubflowsStayOnTheirPlane(t *testing.T) {
	_, net, paths := twoPlane(100)
	f, _ := NewFlow(net, Config{}, paths, 1500)
	for i, sf := range f.subs {
		plane := net.G.Link(sf.fwd[0]).Plane
		for _, l := range sf.fwd {
			if net.G.Link(l).Plane != plane {
				t.Errorf("subflow %d forward path crosses planes", i)
			}
		}
		for _, l := range sf.rev {
			if net.G.Link(l).Plane != plane {
				t.Errorf("subflow %d ack path crosses planes", i)
			}
		}
	}
}

func TestLIAFairnessAtSharedBottleneck(t *testing.T) {
	// An MPTCP flow with 2 subflows and a plain TCP flow share one 100G
	// bottleneck. LIA should keep the MPTCP flow from taking much more
	// than the single-path flow (unlike uncoupled, which behaves like 2
	// competing TCPs).
	build := func(uncoupled bool) (mp, single *Flow, eng *sim.Engine) {
		g := graph.New(4)
		g.SetTransit(0, false)
		g.SetTransit(1, false)
		g.SetTransit(3, false)
		// Hosts 0,3 send to 1 through switch 2; bottleneck is 2->1.
		g.AddDuplex(0, 2, 100, 0)
		g.AddDuplex(3, 2, 100, 0)
		g.AddDuplex(2, 1, 100, 0)
		eng = sim.NewEngine()
		net := sim.NewNetwork(eng, g, sim.Config{})
		p0, _ := graph.ShortestPath(g, 0, 1)
		p3, _ := graph.ShortestPath(g, 3, 1)
		mp, _ = NewFlow(net, Config{Uncoupled: uncoupled}, []graph.Path{p0, p0}, 40_000_000)
		single, _ = NewFlow(net, Config{}, []graph.Path{p3}, 40_000_000)
		return mp, single, eng
	}

	mp, single, eng := build(false)
	mp.Start()
	single.Start()
	eng.RunUntil(3 * sim.Millisecond)
	mpRate := float64(mp.rcvd)
	singleRate := float64(single.rcvd)
	if singleRate == 0 {
		t.Fatal("single flow starved")
	}
	ratio := mpRate / singleRate
	if ratio > 2.0 {
		t.Errorf("coupled MPTCP got %.1fx the single flow's share, want near 1x", ratio)
	}
}

func TestUncoupledBeatsCoupledAtSharedBottleneck(t *testing.T) {
	// Sanity check of the coupling mechanism itself: an uncoupled
	// 2-subflow flow should take a larger share than a coupled one.
	share := func(uncoupled bool) float64 {
		g := graph.New(4)
		g.SetTransit(0, false)
		g.SetTransit(1, false)
		g.SetTransit(3, false)
		g.AddDuplex(0, 2, 100, 0)
		g.AddDuplex(3, 2, 100, 0)
		g.AddDuplex(2, 1, 100, 0)
		eng := sim.NewEngine()
		net := sim.NewNetwork(eng, g, sim.Config{})
		p0, _ := graph.ShortestPath(g, 0, 1)
		p3, _ := graph.ShortestPath(g, 3, 1)
		mp, _ := NewFlow(net, Config{Uncoupled: uncoupled}, []graph.Path{p0, p0}, 40_000_000)
		single, _ := NewFlow(net, Config{}, []graph.Path{p3}, 40_000_000)
		mp.Start()
		single.Start()
		eng.RunUntil(3 * sim.Millisecond)
		return float64(mp.rcvd) / math.Max(float64(single.rcvd), 1)
	}
	coupled := share(false)
	uncoupled := share(true)
	if uncoupled <= coupled {
		t.Errorf("uncoupled share %.2f <= coupled share %.2f", uncoupled, coupled)
	}
}

func TestFlowOnFatTree(t *testing.T) {
	// End-to-end: a flow across a 2-plane parallel fat tree with 4-way
	// multipath completes and uses both planes.
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, tp.G, sim.Config{})
	cs := []route.Commodity{{Src: tp.Hosts[0], Dst: tp.Hosts[15], Demand: 1}}
	paths := route.KSPPaths(tp.G, cs, 4)[0]
	f, err := NewFlow(net, Config{}, paths, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if route.PlaneSpread(tp.G, paths) != 2 {
		t.Fatal("paths do not cover both planes")
	}
	fct := runFlow(t, eng, f)
	if fct <= 0 {
		t.Error("non-positive FCT")
	}
}

func TestStartTwicePanics(t *testing.T) {
	eng, net, p := dumbbell(100, sim.Config{})
	f, _ := NewFlow(net, Config{}, []graph.Path{p}, 1500)
	f.Start()
	defer func() {
		if recover() == nil {
			t.Error("second Start did not panic")
		}
	}()
	f.Start()
	_ = eng
}
