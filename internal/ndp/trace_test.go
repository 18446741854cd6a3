package ndp

import (
	"testing"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

// trimTracer counts trim events and checks flow attribution.
type trimTracer struct {
	trims, enqueues, delivers int
	flowIDs                   map[int64]bool
}

func (tr *trimTracer) PacketEvent(ev sim.TraceEvent, p *sim.Packet, _ graph.LinkID) {
	switch ev {
	case sim.TraceTrim:
		tr.trims++
		if tr.flowIDs == nil {
			tr.flowIDs = map[int64]bool{}
		}
		tr.flowIDs[p.FlowID] = true
	case sim.TraceEnqueue:
		tr.enqueues++
	case sim.TraceDeliver:
		tr.delivers++
	}
}

// TestTracerSeesNDPTrims runs an NDP flow whose initial window (12
// packets) overflows the 8-packet trimming queue: the tracer must see
// the trim events, attribute them to the flow, and the flow must still
// complete (trims become NACKs, not timeouts).
func TestTracerSeesNDPTrims(t *testing.T) {
	g, _ := star(2)
	eng, net := ndpNet(g)
	tr := &trimTracer{}
	net.Tracer = tr

	p, _ := graph.ShortestPath(g, 0, 1)
	f, err := NewFlow(net, Config{}, []graph.Path{p}, 1_500_000)
	if err != nil {
		t.Fatal(err)
	}
	f.ID = 42
	f.Start()
	eng.RunUntil(sim.Second)

	if !f.delivered {
		t.Fatalf("flow incomplete: got %d of %d", f.gotCount, f.SizePkts)
	}
	if tr.trims == 0 {
		t.Fatal("no trim events traced despite window > queue")
	}
	if f.Trims == 0 {
		t.Error("flow saw no trimmed-data notifications")
	}
	if !tr.flowIDs[42] {
		t.Errorf("trim events not attributed to flow 42: %v", tr.flowIDs)
	}
	if tr.enqueues == 0 || tr.delivers == 0 {
		t.Errorf("lifecycle events missing: %d enqueues, %d delivers", tr.enqueues, tr.delivers)
	}
}
