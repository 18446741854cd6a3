package topo

import (
	"testing"

	"pnet/internal/graph"
)

func TestFatTreePlaneCounts(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		p := FatTreePlane(k)
		wantHosts := k * k * k / 4
		wantSwitches := k*k + k*k/4 // k pods of k switches + (k/2)^2 core
		if p.Hosts() != wantHosts {
			t.Errorf("k=%d hosts = %d, want %d", k, p.Hosts(), wantHosts)
		}
		if p.Switches != wantSwitches {
			t.Errorf("k=%d switches = %d, want %d", k, p.Switches, wantSwitches)
		}
		// Total duplex inter-switch cables: edge-agg (k*(k/2)^2) + agg-core (k*(k/2)^2).
		wantEdges := 2 * k * (k / 2) * (k / 2)
		if len(p.Edges) != wantEdges {
			t.Errorf("k=%d edges = %d, want %d", k, len(p.Edges), wantEdges)
		}
	}
}

func TestFatTreePlanePortBudget(t *testing.T) {
	// No switch may use more than k ports (hosts + network).
	k := 8
	p := FatTreePlane(k)
	ports := make([]int, p.Switches)
	for _, e := range p.Edges {
		ports[e[0]]++
		ports[e[1]]++
	}
	for _, s := range p.HostPort {
		ports[s]++
	}
	for i, used := range ports {
		if used > k {
			t.Errorf("switch %d uses %d ports, budget %d", i, used, k)
		}
	}
}

func TestFatTreePlaneInvalidArity(t *testing.T) {
	checkPreconditions(t, []preconditionCase{
		{"FatTreePlane k=2", func() { FatTreePlane(2) }, []string{"k=2", "even and >= 4"}},
		{"FatTreePlane k=5", func() { FatTreePlane(5) }, []string{"k=5", "even and >= 4"}},
		{"FatTreePlane k=0", func() { FatTreePlane(0) }, []string{"k=0", "even and >= 4"}},
	})
}

func TestAssembleSerialFatTreeConnectivity(t *testing.T) {
	tp := Assemble("ft4", 100, FatTreePlane(4))
	if tp.NumHosts() != 16 {
		t.Fatalf("hosts = %d", tp.NumHosts())
	}
	dist := graph.HopDistances(tp.G, tp.Hosts[0])
	for _, h := range tp.Hosts[1:] {
		if dist[h] < 0 {
			t.Fatalf("host %d unreachable", h)
		}
	}
	// Same-rack pair: 2 hops (host-edge-host). Hosts 0,1 share an edge switch.
	if dist[tp.Hosts[1]] != 2 {
		t.Errorf("same-rack distance = %d, want 2", dist[tp.Hosts[1]])
	}
	// Cross-pod pair: 6 hops (host-edge-agg-core-agg-edge-host).
	if dist[tp.Hosts[15]] != 6 {
		t.Errorf("cross-pod distance = %d, want 6", dist[tp.Hosts[15]])
	}
}

func TestAssembleHostsNonTransit(t *testing.T) {
	tp := Assemble("ft4", 100, FatTreePlane(4))
	for _, h := range tp.Hosts {
		if tp.G.Frozen().Transit(h) {
			t.Errorf("host %d is transit", h)
		}
	}
	for p := 0; p < tp.Planes; p++ {
		base := tp.SwitchBase[p]
		for i := 0; i < tp.SwitchCount[p]; i++ {
			if !tp.G.Frozen().Transit(base + graph.NodeID(i)) {
				t.Errorf("switch %d not transit", base+graph.NodeID(i))
			}
		}
	}
}

func TestAssembleParallelPlanesDisjoint(t *testing.T) {
	set := FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	if tp.Planes != 2 {
		t.Fatalf("planes = %d", tp.Planes)
	}
	// Every link must connect nodes of the same plane, or a host to a
	// switch of the link's tagged plane.
	for i := 0; i < tp.G.NumLinks(); i++ {
		l := tp.G.Link(graph.LinkID(i))
		srcPlane := tp.PlaneOfSwitch(l.Src)
		dstPlane := tp.PlaneOfSwitch(l.Dst)
		switch {
		case srcPlane >= 0 && dstPlane >= 0:
			if srcPlane != dstPlane {
				t.Fatalf("link %d crosses planes %d->%d", i, srcPlane, dstPlane)
			}
			if int32(srcPlane) != l.Plane {
				t.Fatalf("link %d plane tag %d, in plane %d", i, l.Plane, srcPlane)
			}
		case srcPlane < 0 && dstPlane >= 0: // host uplink
			if int32(dstPlane) != l.Plane {
				t.Fatalf("uplink %d tag %d attaches to plane %d", i, l.Plane, dstPlane)
			}
		case srcPlane >= 0 && dstPlane < 0: // host downlink
			if int32(srcPlane) != l.Plane {
				t.Fatalf("downlink %d tag %d from plane %d", i, l.Plane, srcPlane)
			}
		default:
			t.Fatalf("link %d connects two hosts", i)
		}
	}
}

func TestAssembleUplinksPerPlane(t *testing.T) {
	set := FatTreeSet(4, 4, 100)
	tp := set.ParallelHomo
	for h := range tp.Hosts {
		if len(tp.Uplinks[h]) != 4 {
			t.Fatalf("host %d has %d uplinks", h, len(tp.Uplinks[h]))
		}
		for p, id := range tp.Uplinks[h] {
			l := tp.G.Link(id)
			if l.Src != tp.Hosts[h] || l.Plane != int32(p) {
				t.Errorf("host %d plane %d uplink wrong: %+v", h, p, l)
			}
			if tp.G.Link(tp.Downlinks[h][p]).Dst != tp.Hosts[h] {
				t.Errorf("host %d plane %d downlink wrong", h, p)
			}
		}
	}
}

func TestAssembleMismatchedHostsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched plane host counts")
		}
	}()
	Assemble("bad", 100, FatTreePlane(4), FatTreePlane(8))
}

func TestRackGrouping(t *testing.T) {
	tp := Assemble("ft4", 100, FatTreePlane(4))
	// k=4: 2 hosts per edge switch, 8 racks.
	if tp.NumRacks != 8 {
		t.Fatalf("racks = %d, want 8", tp.NumRacks)
	}
	racks := tp.RackMembers()
	for r, members := range racks {
		if len(members) != 2 {
			t.Errorf("rack %d has %d members", r, len(members))
		}
	}
	if tp.RackOf[0] != tp.RackOf[1] || tp.RackOf[0] == tp.RackOf[2] {
		t.Errorf("rack assignment wrong: %v", tp.RackOf[:4])
	}
}

func TestJellyfishRegularAndConnected(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := JellyfishPlane(20, 5, 4, seed)
		deg := p.Degrees()
		full := 0
		for _, d := range deg {
			if d > 5 {
				t.Fatalf("seed %d: degree %d exceeds 5", seed, d)
			}
			if d == 5 {
				full++
			}
		}
		// The construction should place all or nearly all ports.
		if full < 18 {
			t.Errorf("seed %d: only %d/20 switches at full degree", seed, full)
		}
		tp := Assemble("jf", 100, p)
		dist := graph.HopDistances(tp.G, tp.Hosts[0])
		for _, h := range tp.Hosts {
			if h != tp.Hosts[0] && dist[h] < 0 {
				t.Fatalf("seed %d: host %d unreachable", seed, h)
			}
		}
	}
}

func TestJellyfishNoDuplicateEdges(t *testing.T) {
	p := JellyfishPlane(30, 6, 2, 42)
	seen := map[[2]int]bool{}
	for _, e := range p.Edges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		if a == b {
			t.Fatalf("self edge %v", e)
		}
		if seen[[2]int{a, b}] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[[2]int{a, b}] = true
	}
}

func TestJellyfishDeterministicPerSeed(t *testing.T) {
	a := JellyfishPlane(20, 5, 4, 7)
	b := JellyfishPlane(20, 5, 4, 7)
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
	c := JellyfishPlane(20, 5, 4, 8)
	same := len(a.Edges) == len(c.Edges)
	if same {
		identical := true
		for i := range a.Edges {
			if a.Edges[i] != c.Edges[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestJellyfishSetHeterogeneousDiffers(t *testing.T) {
	set := JellyfishSet(20, 5, 4, 4, 100, 1)
	het := set.ParallelHetero
	if het == nil {
		t.Fatal("no heterogeneous topology")
	}
	if het.Planes != 4 {
		t.Fatalf("planes = %d", het.Planes)
	}
	// Hop distributions of plane 1..3 should differ from plane 0 for at
	// least some host pair (different random graphs).
	homo := set.ParallelHomo
	diff := false
	hetDist := graph.HopDistances(het.G, het.Hosts[0])
	homoDist := graph.HopDistances(homo.G, homo.Hosts[0])
	for _, h := range het.Hosts[1:] {
		if hetDist[h] != homoDist[h] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("heterogeneous and homogeneous min-distances identical for all pairs from host 0 (suspicious)")
	}
}

func TestSerialHighSpeedScaled(t *testing.T) {
	set := FatTreeSet(4, 8, 100)
	if set.SerialHigh.LinkSpeed != 800 {
		t.Errorf("serial high speed = %v, want 800", set.SerialHigh.LinkSpeed)
	}
	if set.SerialLow.LinkSpeed != 100 {
		t.Errorf("serial low speed = %v", set.SerialLow.LinkSpeed)
	}
	l := set.SerialHigh.G.Link(set.SerialHigh.Uplinks[0][0])
	if l.Capacity != 800 {
		t.Errorf("serial high uplink capacity = %v", l.Capacity)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	want := []Components{
		{Tiers: 4, Hops: 7, Chips: 3584, Boxes: 3584, Links: 24576},
		{Tiers: 2, Hops: 7, Chips: 3584, Boxes: 192, Links: 8192},
		{Tiers: 2, Hops: 3, Chips: 1536, Boxes: 192, Links: 8192},
	}
	for i, w := range want {
		g := rows[i]
		if g.Tiers != w.Tiers || g.Hops != w.Hops || g.Chips != w.Chips ||
			g.Boxes != w.Boxes || g.Links != w.Links {
			t.Errorf("row %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestInterSwitchLinks(t *testing.T) {
	tp := Assemble("ft4", 100, FatTreePlane(4))
	inter := tp.InterSwitchLinks()
	// Duplex: 2 directed per cable; cables = 2*k*(k/2)^2 = 32 for k=4.
	if len(inter) != 64 {
		t.Errorf("inter-switch directed links = %d, want 64", len(inter))
	}
	for _, id := range inter {
		l := tp.G.Link(id)
		if int(l.Src) < tp.NumHosts() || int(l.Dst) < tp.NumHosts() {
			t.Errorf("link %d touches a host", id)
		}
	}
}

// TestPaperJellyfish686 builds the paper's packet-level Jellyfish: 686
// hosts as 98 switches with 7 hosts and 7 network ports each.
func TestPaperJellyfish686(t *testing.T) {
	set := JellyfishSet(98, 7, 7, 2, 100, 3)
	if set.SerialLow.NumHosts() != 686 {
		t.Errorf("hosts = %d, want 686", set.SerialLow.NumHosts())
	}
	if set.SerialLow.NumRacks != 98 {
		t.Errorf("racks = %d, want 98", set.SerialLow.NumRacks)
	}
}
