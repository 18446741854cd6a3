package tcp

import (
	"testing"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

// ecnDumbbell builds a 2-host network with DCTCP-style ECN marking.
func ecnDumbbell(thresholdPkts int32) (*sim.Engine, *sim.Network, graph.Path) {
	return dumbbellCfg(sim.Config{ECNThresholdBytes: thresholdPkts * 1500})
}

func dumbbellCfg(cfg sim.Config) (*sim.Engine, *sim.Network, graph.Path) {
	g := graph.New(3)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	g.AddDuplex(0, 2, 100, 0)
	g.AddDuplex(1, 2, 100, 0)
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, cfg)
	p := graph.KShortestPathsMasked(g, 0, 1, 1, nil)[0]
	return eng, net, p
}

func TestDCTCPKeepsQueueShort(t *testing.T) {
	// A long transfer under DCTCP should hold the bottleneck queue near
	// the marking threshold instead of filling the 100-packet buffer.
	eng, net, p := ecnDumbbell(10)
	f, _ := NewFlow(net, Config{DCTCP: true}, []graph.Path{p}, 20_000_000)
	f.Start()

	maxQueue := int32(0)
	probe := func() {}
	probe = func() {
		if q := net.QueueDepth(p.Links[1]); q > maxQueue {
			maxQueue = q
		}
		if !f.Done() {
			eng.After(10*sim.Microsecond, probe)
		}
	}
	eng.After(200*sim.Microsecond, probe) // after slow start settles
	eng.RunUntil(20 * sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	// Steady-state queue should stay well below the drop-tail limit of
	// 100 packets (DCTCP targets ~K).
	if maxQueue > 60*1500 {
		t.Errorf("max steady-state queue = %d bytes, want < 90kB", maxQueue)
	}
	if net.TotalDrops() != 0 {
		t.Errorf("drops = %d under DCTCP, want 0", net.TotalDrops())
	}
}

func TestDCTCPStillCompletesAndFillsLink(t *testing.T) {
	eng, net, p := ecnDumbbell(20)
	f, _ := NewFlow(net, Config{DCTCP: true}, []graph.Path{p}, 20_000_000)
	f.Start()
	eng.RunUntil(20 * sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	floor := sim.Time(f.SizePkts) * 120 * sim.Nanosecond
	if f.FCT() > 2*floor {
		t.Errorf("DCTCP FCT %v more than 2x serialization floor %v", f.FCT(), floor)
	}
}

func TestDCTCPReactsProportionally(t *testing.T) {
	// With marking, alpha should settle strictly between 0 and 1 in
	// steady state (partial marking), not slam to full backoff.
	eng, net, p := ecnDumbbell(10)
	f, _ := NewFlow(net, Config{DCTCP: true}, []graph.Path{p}, 20_000_000)
	f.Start()
	eng.RunUntil(20 * sim.Second)
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
	alpha := f.subs[0].dctcpAlpha
	if alpha <= 0 || alpha >= 1 {
		t.Errorf("steady-state alpha = %v, want in (0,1)", alpha)
	}
}

func TestDCTCPIncastBeatsTCP(t *testing.T) {
	// 8-to-1 incast into a small buffer: TCP loses bursts and some
	// flows RTO; DCTCP throttles early and avoids the timeout cliff.
	run := func(dctcp bool) (sim.Time, int64) {
		g := graph.New(10)
		for i := 0; i < 9; i++ {
			g.SetTransit(graph.NodeID(i), false)
		}
		sw := graph.NodeID(9)
		for i := 0; i < 9; i++ {
			g.AddDuplex(graph.NodeID(i), sw, 100, 0)
		}
		cfg := sim.Config{QueueBytes: 64 * 1500}
		if dctcp {
			cfg.ECNThresholdBytes = 10 * 1500
		}
		eng := sim.NewEngine()
		net := sim.NewNetwork(eng, g, cfg)
		done := 0
		var last sim.Time
		for i := 1; i <= 8; i++ {
			p := graph.KShortestPathsMasked(g, graph.NodeID(i), 0, 1, nil)[0]
			f, _ := NewFlow(net, Config{DCTCP: dctcp}, []graph.Path{p}, 256_000)
			f.OnComplete = func(*Flow) {
				done++
				last = eng.Now()
			}
			f.Start()
		}
		eng.RunUntil(10 * sim.Second)
		if done != 8 {
			t.Fatalf("only %d of 8 incast flows completed", done)
		}
		return last, net.TotalDrops()
	}
	tcpICT, tcpDrops := run(false)
	dctcpICT, dctcpDrops := run(true)
	// At this small scale SACK keeps TCP off the RTO cliff, so completion
	// times are comparable (the full cliff shows in the `incast`
	// experiment); the robust invariant is loss avoidance.
	if dctcpDrops >= tcpDrops {
		t.Errorf("DCTCP drops %d >= TCP drops %d", dctcpDrops, tcpDrops)
	}
	if dctcpICT > 2*tcpICT {
		t.Errorf("DCTCP incast %v more than 2x TCP %v", dctcpICT, tcpICT)
	}
}
