package ndp

import (
	"testing"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

// TestNDPTrimsAtTheBottleneck runs an NDP flow whose initial window (12
// packets) overflows the sender's 8-packet trimming queue: that queue must
// trim, the flow must process the trimmed headers, and it must still
// complete (trims become NACKs, not timeouts).
func TestNDPTrimsAtTheBottleneck(t *testing.T) {
	g, _ := star(2)
	eng, net := ndpNet(g)

	p := graph.KShortestPathsMasked(g, 0, 1, 1, nil)[0]
	f, err := NewFlow(net, []graph.Path{p}, 1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	f.ID = 42
	f.Start()
	eng.RunUntil(sim.Second)

	if !f.delivered {
		t.Fatalf("flow incomplete: got %d of %d", f.gotCount, f.SizePkts)
	}
	if st := net.Stats(p.Links[0]); st.Trims == 0 || st.TxPackets == 0 {
		t.Fatalf("sender's queue: %+v, want trims despite window > queue", st)
	}
	if f.Trims == 0 {
		t.Error("flow saw no trimmed-data notifications")
	}
}
