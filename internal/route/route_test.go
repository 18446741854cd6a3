package route

import (
	"testing"

	"pnet/internal/graph"
	"pnet/internal/topo"
)

func commoditiesAmong(hosts []graph.NodeID, pairs [][2]int) []Commodity {
	cs := make([]Commodity, len(pairs))
	for i, p := range pairs {
		cs[i] = Commodity{Src: hosts[p[0]], Dst: hosts[p[1]], Demand: 1}
	}
	return cs
}

func TestECMPPathsPinned(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	cs := commoditiesAmong(tp.Hosts, [][2]int{{0, 15}, {3, 12}, {5, 9}})
	a := ECMPPaths(tp.G, cs, 1)
	b := ECMPPaths(tp.G, cs, 1)
	for i := range cs {
		if len(a[i]) != 1 {
			t.Fatalf("commodity %d: %d paths, want 1", i, len(a[i]))
		}
		if !a[i][0].Equal(b[i][0]) {
			t.Errorf("commodity %d: ECMP not deterministic", i)
		}
		if !a[i][0].Valid(tp.G) {
			t.Errorf("commodity %d: invalid path", i)
		}
		if a[i][0].Src(tp.G) != cs[i].Src || a[i][0].Dst(tp.G) != cs[i].Dst {
			t.Errorf("commodity %d: wrong endpoints", i)
		}
	}
}

func TestECMPSpreadsOverPlanes(t *testing.T) {
	set := topo.FatTreeSet(4, 4, 100)
	tp := set.ParallelHomo
	// Many flows between the same pair should hash across all 4 planes.
	var cs []Commodity
	for i := 0; i < 64; i++ {
		cs = append(cs, Commodity{Src: tp.Hosts[0], Dst: tp.Hosts[15], Demand: 1})
	}
	paths := ECMPPaths(tp.G, cs, 99)
	planes := map[int32]bool{}
	for _, ps := range paths {
		planes[ps[0].Plane(tp.G)] = true
	}
	if len(planes) != 4 {
		t.Errorf("64 flows hashed onto %d planes, want 4", len(planes))
	}
}

func TestECMPUnreachable(t *testing.T) {
	g := graph.New(2)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	paths := ECMPPaths(g, []Commodity{{Src: 0, Dst: 1, Demand: 1}}, 0)
	if len(paths[0]) != 0 {
		t.Error("found path in disconnected graph")
	}
}

func TestKSPPathsCrossPlanes(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	cs := commoditiesAmong(tp.Hosts, [][2]int{{0, 15}})
	paths := KSPPaths(tp.G, cs, 8)[0]
	if len(paths) != 8 {
		t.Fatalf("got %d paths, want 8", len(paths))
	}
	for _, p := range paths {
		if !p.Valid(tp.G) {
			t.Fatalf("invalid path %v", p.Links)
		}
	}
	if PlaneSpread(tp.G, paths) != 2 {
		t.Errorf("8 KSP paths cover %d planes, want 2", PlaneSpread(tp.G, paths))
	}
	// Cross-pod shortest is 6 hops; all 8 paths should be 6 hops in a
	// 2-plane k=4 parallel fat tree (4 shortest per plane).
	for i, p := range paths {
		if p.Len() != 6 {
			t.Errorf("path %d length %d, want 6", i, p.Len())
		}
	}
}

func TestKSPInterleavingAlternatesPlanes(t *testing.T) {
	set := topo.FatTreeSet(4, 4, 100)
	tp := set.ParallelHomo
	cs := commoditiesAmong(tp.Hosts, [][2]int{{0, 15}})
	paths := KSPPaths(tp.G, cs, 8)[0]
	if len(paths) < 8 {
		t.Fatalf("got %d paths", len(paths))
	}
	// First 4 equal-length paths must land on 4 distinct planes.
	seen := map[int32]bool{}
	for _, p := range paths[:4] {
		seen[p.Plane(tp.G)] = true
	}
	if len(seen) != 4 {
		t.Errorf("first 4 paths cover %d planes, want 4", len(seen))
	}
}

func TestInterleavePlanesPreservesLengthOrder(t *testing.T) {
	set := topo.JellyfishSet(12, 4, 2, 4, 100, 5)
	tp := set.ParallelHetero
	cs := commoditiesAmong(tp.Hosts, [][2]int{{0, 23}})
	paths := KSPPaths(tp.G, cs, 12)[0]
	for i := 1; i < len(paths); i++ {
		if paths[i].Len() < paths[i-1].Len() {
			t.Fatalf("interleaving broke length order at %d", i)
		}
	}
}

func TestPlaneSpread(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.SerialLow
	cs := commoditiesAmong(tp.Hosts, [][2]int{{0, 15}})
	paths := KSPPaths(tp.G, cs, 4)[0]
	if got := PlaneSpread(tp.G, paths); got != 1 {
		t.Errorf("serial network plane spread = %d, want 1", got)
	}
}
