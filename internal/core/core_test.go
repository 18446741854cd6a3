package core

import (
	"slices"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/route"
	"pnet/internal/topo"
)

func heteroPair() *topo.Topology {
	// Plane 0: 2 switch hops between ToRs; plane 1: direct.
	long := topo.PlaneSpec{
		Switches: 3,
		Edges:    [][2]int{{0, 1}, {1, 2}},
		HostPort: []int{0, 2},
	}
	short := topo.PlaneSpec{
		Switches: 2,
		Edges:    [][2]int{{0, 1}},
		HostPort: []int{0, 1},
	}
	return topo.Assemble("hetero-pair", 100, long, short)
}

// hostLinksUp counts the host uplinks and downlinks of plane that are up
// in the hosts' graph view, the state MarkPlaneDown sets.
func hostLinksUp(p *PNet, plane int) int {
	n := 0
	for h := range p.Topo.Uplinks {
		for _, id := range []graph.LinkID{p.Topo.Uplinks[h][plane], p.Topo.Downlinks[h][plane]} {
			if p.Topo.G.Link(id).Up {
				n++
			}
		}
	}
	return n
}

func TestLowLatencyPicksShortestPlane(t *testing.T) {
	p := New(heteroPair())
	path, ok := p.LowLatencyPath(0, 1)
	if !ok {
		t.Fatal("no path")
	}
	if path.Plane(p.Topo.G) != 1 {
		t.Errorf("plane = %d, want 1", path.Plane(p.Topo.G))
	}
	if path.Len() != 3 {
		t.Errorf("len = %d, want 3", path.Len())
	}
}

func TestHighThroughputPathsSpreadAndCache(t *testing.T) {
	set := topo.FatTreeSet(4, 4, 100)
	p := New(set.ParallelHomo)
	src, dst := p.Topo.Hosts[0], p.Topo.Hosts[15]
	ps := p.HighThroughputPaths(src, dst, 8)
	if len(ps) != 8 {
		t.Fatalf("got %d paths", len(ps))
	}
	if route.PlaneSpread(p.Topo.G, ps) != 4 {
		t.Errorf("spread = %d, want 4", route.PlaneSpread(p.Topo.G, ps))
	}
	// Cached: same slice back.
	ps2 := p.HighThroughputPaths(src, dst, 8)
	if &ps[0] != &ps2[0] {
		t.Error("KSP result not cached")
	}
}

func TestECMPPathDeterministicPerHash(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	p := New(set.ParallelHomo)
	src, dst := p.Topo.Hosts[0], p.Topo.Hosts[15]
	a, ok1 := p.ECMPPath(src, dst, 7)
	a.Links = slices.Clone(a.Links) // the next call reuses the buffer
	b, ok2 := p.ECMPPath(src, dst, 7)
	if !ok1 || !ok2 || !a.Equal(b) {
		t.Error("ECMP path not deterministic")
	}
	planes := map[int32]bool{}
	for h := uint64(0); h < 32; h++ {
		q, _ := p.ECMPPath(src, dst, h)
		planes[q.Plane(p.Topo.G)] = true
	}
	if len(planes) != 2 {
		t.Errorf("ECMP hashes onto %d planes, want 2", len(planes))
	}
}

func TestSubflowsFor(t *testing.T) {
	for planes, want := range map[int]int{1: 8, 2: 16, 4: 32, 8: 64} {
		if got := SubflowsFor(planes); got != want {
			t.Errorf("SubflowsFor(%d) = %d, want %d", planes, got, want)
		}
	}
}

func TestMarkPlaneDownReroutesPaths(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	p := New(set.ParallelHomo)
	src, dst := p.Topo.Hosts[0], p.Topo.Hosts[15]

	p.MarkPlaneDown(0)
	path, ok := p.LowLatencyPath(src, dst)
	if !ok {
		t.Fatal("no path with plane 0 down")
	}
	if path.Plane(p.Topo.G) != 1 {
		t.Errorf("path on plane %d, want 1", path.Plane(p.Topo.G))
	}
	ps := p.HighThroughputPaths(src, dst, 8)
	for _, q := range ps {
		if q.Plane(p.Topo.G) != 1 {
			t.Errorf("KSP path on downed plane")
		}
	}
	if up := hostLinksUp(p, 0); up != 0 {
		t.Errorf("%d plane-0 host links up after MarkPlaneDown(0)", up)
	}
	if up, all := hostLinksUp(p, 1), 2*p.Topo.NumHosts(); up != all {
		t.Errorf("%d of %d plane-1 host links up", up, all)
	}
}

// TestMarkPlaneDownKeepsSurvivingPaths: downing a plane resets the
// caches without disturbing the survivor: the surviving plane's
// multipath choices are the ones it offered before the fault, in order.
func TestMarkPlaneDownKeepsSurvivingPaths(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	p := New(set.ParallelHomo)
	g, hosts := p.Topo.G, p.Topo.Hosts
	const k = 8
	var before [][]graph.Path
	for _, dst := range hosts[1:] {
		var onPlane1 []graph.Path
		for _, q := range p.HighThroughputPaths(hosts[0], dst, k) {
			if q.Plane(g) == 1 {
				onPlane1 = append(onPlane1, q)
			}
		}
		if len(onPlane1) == 0 {
			t.Fatalf("host 0 -> %d: no plane-1 path among %d", dst, k)
		}
		before = append(before, onPlane1)
	}
	p.MarkPlaneDown(0)
	for i, dst := range hosts[1:] {
		after := p.HighThroughputPaths(hosts[0], dst, k)
		if len(after) < len(before[i]) {
			t.Fatalf("host 0 -> %d: %d paths after the fault, %d on plane 1 before", dst, len(after), len(before[i]))
		}
		for j, q := range before[i] {
			if !after[j].Equal(q) {
				t.Errorf("host 0 -> %d: path %d = %v after the fault, was %v", dst, j, after[j].Links, q.Links)
			}
		}
		for _, q := range after {
			if q.Plane(g) != 1 {
				t.Errorf("host 0 -> %d: path %v on downed plane %d", dst, q.Links, q.Plane(g))
			}
		}
	}
}
