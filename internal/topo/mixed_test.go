package topo

import (
	"testing"

	"pnet/internal/graph"
)

func TestMixedPNetStructure(t *testing.T) {
	tp := MixedPNet(4, 3, 100, 7)
	if tp.NumHosts() != 16 {
		t.Fatalf("hosts = %d, want 16", tp.NumHosts())
	}
	if tp.Planes != 3 {
		t.Fatalf("planes = %d", tp.Planes)
	}
	// Plane 0 is the fat tree (20 switches for k=4); planes 1-2 are
	// 8-switch expanders (16 hosts / 2 per switch).
	if tp.SwitchCount[0] != 20 {
		t.Errorf("fat tree plane switches = %d, want 20", tp.SwitchCount[0])
	}
	for p := 1; p < 3; p++ {
		if tp.SwitchCount[p] != 8 {
			t.Errorf("expander plane %d switches = %d, want 8", p, tp.SwitchCount[p])
		}
	}
}

func TestMixedPNetConnectivityPerPlane(t *testing.T) {
	tp := MixedPNet(4, 3, 100, 7)
	// Every host pair must be reachable within every plane alone.
	for plane, mask := range tp.G.PlaneMasks() {
		for _, dst := range []graph.NodeID{tp.Hosts[5], tp.Hosts[15]} {
			if ps := graph.KShortestPathsMasked(tp.G, tp.Hosts[0], dst, 1, mask); len(ps) == 0 {
				t.Errorf("plane %d cannot reach host %d", plane, dst)
			}
		}
	}
}

func TestMixedPNetNeedsTwoPlanes(t *testing.T) {
	checkPreconditions(t, []preconditionCase{
		{"MixedPNet planes=1", func() { MixedPNet(4, 1, 100, 7) }, []string{"planes=1", "at least 2"}},
	})
}
