package ndp

import (
	"testing"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

func TestNDPEndpointMismatch(t *testing.T) {
	g, _ := star(3)
	_, net := ndpNet(g)
	p1 := graph.KShortestPathsMasked(g, 0, 1, 1, nil)[0]
	p2 := graph.KShortestPathsMasked(g, 0, 2, 1, nil)[0]
	if _, err := NewFlow(net, []graph.Path{p1, p2}, 1000); err == nil {
		t.Error("no error for mismatched path endpoints")
	}
}

func TestNDPSmallFlowSinglePacket(t *testing.T) {
	g, _ := star(2)
	eng, net := ndpNet(g)
	p := graph.KShortestPathsMasked(g, 0, 1, 1, nil)[0]
	f, _ := NewFlow(net, []graph.Path{p}, 100)
	if f.SizePkts != 1 {
		t.Fatalf("SizePkts = %d", f.SizePkts)
	}
	f.Start()
	eng.RunUntil(sim.Second)
	if !f.delivered {
		t.Fatal("single-packet flow incomplete")
	}
	// One data packet, no trims, receiver-measured FCT of ~one way.
	if f.Trims != 0 {
		t.Errorf("trims = %d", f.Trims)
	}
	if fct := f.Finished - f.Started; fct <= 0 || fct > 10*sim.Microsecond {
		t.Errorf("FCT = %v", fct)
	}
}

func TestNDPBitsetBookkeeping(t *testing.T) {
	g, _ := star(2)
	_, net := ndpNet(g)
	p := graph.KShortestPathsMasked(g, 0, 1, 1, nil)[0]
	f, _ := NewFlow(net, []graph.Path{p}, 130*1500)
	if got := len(f.got); got != 3 { // ceil(130/64) words
		t.Errorf("bitset words = %d, want 3", got)
	}
	if f.has(5) {
		t.Error("fresh bitset claims receipt")
	}
	if !f.set(5) || f.set(5) {
		t.Error("set/dedup broken")
	}
	if !f.has(5) || f.gotCount != 1 {
		t.Error("bookkeeping broken")
	}
}
