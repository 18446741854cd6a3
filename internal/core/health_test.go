package core

import (
	"testing"

	"pnet/internal/graph"
	"pnet/internal/sim"
	"pnet/internal/topo"
)

// monitoredNet builds a two-plane fat-tree with a simulated dataplane
// and a health monitor probing host 0 ↔ host 1.
func monitoredNet(until sim.Time) (*sim.Engine, *sim.Network, *PNet, *HealthMonitor) {
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, tp.G, sim.Config{})
	p := New(tp)
	m := NewHealthMonitor(eng, net, p, until)
	return eng, net, p, m
}

// setPlanePhysical flips every link of a plane in the simulated
// dataplane only — what the faults experiment's outage does — leaving the
// hosts' graph view untouched.
func setPlanePhysical(net *sim.Network, plane int32, up bool) {
	g := net.G
	for i := 0; i < g.NumLinks(); i++ {
		if g.Link(graph.LinkID(i)).Plane == plane {
			net.SetLinkUp(graph.LinkID(i), up)
		}
	}
}

func TestHealthMonitorQuietOnHealthyNet(t *testing.T) {
	eng, _, p, m := monitoredNet(0)
	var events []PlaneEvent
	m.OnChange = func(e PlaneEvent) { events = append(events, e) }
	m.Start()
	eng.RunUntil(5 * sim.Millisecond)
	if len(events) != 0 {
		t.Fatalf("healthy network produced %d liveness events: %v", len(events), events)
	}
	if m.declDown[0] || m.declDown[1] || hostLinksUp(p, 0)+hostLinksUp(p, 1) != 4*p.Topo.NumHosts() {
		t.Error("healthy plane declared down")
	}
}

func TestHealthMonitorDetectsAndRecovers(t *testing.T) {
	eng, net, p, m := monitoredNet(0)
	var events []PlaneEvent
	m.OnChange = func(e PlaneEvent) { events = append(events, e) }
	m.Start()

	faultAt := 5 * sim.Millisecond
	clearAt := 10 * sim.Millisecond
	eng.At(faultAt, func() { setPlanePhysical(net, 0, false) })
	eng.At(clearAt, func() { setPlanePhysical(net, 0, true) })
	eng.RunUntil(15 * sim.Millisecond)

	if len(events) != 2 {
		t.Fatalf("events = %v, want down then up", events)
	}
	down, up := events[0], events[1]
	if down.Plane != 0 || down.Up {
		t.Fatalf("first event = %+v, want plane 0 down", down)
	}
	detect := down.At - faultAt
	if detect <= 0 {
		t.Errorf("detection latency %v not positive — oracle failover?", detect)
	}
	// The verdict needs downAfter (3×100 µs) of silence plus at
	// most one probe interval and a round-trip of slack.
	if limit := 600 * sim.Microsecond; detect > limit {
		t.Errorf("detection latency %v too slow (limit %v)", detect, limit)
	}
	if up.Plane != 0 || !up.Up || up.At <= clearAt {
		t.Errorf("second event = %+v, want plane 0 up after %v", up, clearAt)
	}

	// The monitor must have driven the control plane, not just reported.
	if up, all := hostLinksUp(p, 0), 2*p.Topo.NumHosts(); up != all {
		t.Errorf("%d of %d plane-0 host links up in PNet after recovery", up, all)
	}
	if m.declDown[0] {
		t.Error("monitor verdict still down after recovery")
	}
	// Blackholed probes are the only traffic here; the fault must have
	// eaten some.
	if net.TotalBlackholed() == 0 {
		t.Error("no probes blackholed across a 5ms outage")
	}
}

func TestHealthMonitorDrivesReroute(t *testing.T) {
	eng, net, p, m := monitoredNet(0)
	m.Start()
	src, dst := p.Topo.Hosts[0], p.Topo.Hosts[15]

	before, ok := p.LowLatencyPath(src, dst)
	if !ok {
		t.Fatal("no path before fault")
	}
	eng.At(2*sim.Millisecond, func() { setPlanePhysical(net, 0, false) })
	eng.RunUntil(5 * sim.Millisecond)

	after, ok := p.LowLatencyPath(src, dst)
	if !ok {
		t.Fatal("no path after plane 0 died — failover failed")
	}
	if after.Plane(p.Topo.G) != 1 {
		t.Errorf("path still on plane %d after detection", after.Plane(p.Topo.G))
	}
	_ = before
}

func TestHealthMonitorUntilStopsProbing(t *testing.T) {
	eng, _, _, m := monitoredNet(sim.Millisecond)
	m.Start()
	// With Until set, the event heap must drain on its own.
	eng.Run()
	if now := eng.Now(); now > 2*sim.Millisecond {
		t.Errorf("engine ran to %v, want to stop soon after Until", now)
	}
}
