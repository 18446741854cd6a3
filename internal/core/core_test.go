package core

import (
	"testing"

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

func TestPathsForFlowPolicy(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	p := New(set.ParallelHomo)
	src, dst := p.Topo.Hosts[0], p.Topo.Hosts[15]

	small := p.PathsForFlow(src, dst, 1<<20, 0) // 1 MB
	if len(small) != 1 {
		t.Errorf("small flow got %d paths, want 1", len(small))
	}
	mid := p.PathsForFlow(src, dst, 500<<20, 0) // 500 MB: middle band
	if len(mid) != 1 {
		t.Errorf("mid flow got %d paths, want 1 (conservative)", len(mid))
	}
	bulk := p.PathsForFlow(src, dst, 2<<30, 0) // 2 GB
	if len(bulk) != SubflowsFor(2) {
		t.Errorf("bulk flow got %d paths, want %d", len(bulk), SubflowsFor(2))
	}
	bulk4 := p.PathsForFlow(src, dst, 2<<30, 4)
	if len(bulk4) != 4 {
		t.Errorf("bulk flow with explicit k got %d paths", len(bulk4))
	}
}

func TestNextPlaneRoundRobin(t *testing.T) {
	set := topo.FatTreeSet(4, 4, 100)
	p := New(set.ParallelHomo)
	var got []int
	for i := 0; i < 8; i++ {
		pl, ok := p.NextPlane(0)
		if !ok {
			t.Fatal("no plane")
		}
		got = append(got, pl)
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", got, want)
		}
	}
	// Hosts rotate independently.
	pl, _ := p.NextPlane(1)
	if pl != 0 {
		t.Errorf("host 1 first plane = %d, want 0", pl)
	}
}

func TestNextPlaneSkipsDownPlane(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	p := New(set.ParallelHomo)
	p.MarkPlaneDown(0)
	for i := 0; i < 4; i++ {
		pl, ok := p.NextPlane(0)
		if !ok || pl != 1 {
			t.Fatalf("plane = %d ok=%v, want 1", pl, ok)
		}
	}
	p.MarkPlaneDown(1)
	if _, ok := p.NextPlane(0); ok {
		t.Error("NextPlane succeeded with all planes down")
	}
	p.MarkPlaneUp(0)
	if pl, ok := p.NextPlane(0); !ok || pl != 0 {
		t.Errorf("after restore: plane = %d ok=%v", pl, ok)
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
	if p.planeUp[0] || !p.planeUp[1] {
		t.Error("plane status wrong")
	}
}

func TestMarkPlaneDownUpRoundTrip(t *testing.T) {
	// Re-upping a plane must restore the exact pre-fault selection, not
	// just some path: caches and link states have to round-trip cleanly.
	set := topo.FatTreeSet(4, 2, 100)
	p := New(set.ParallelHomo)
	src, dst := p.Topo.Hosts[0], p.Topo.Hosts[15]

	orig, ok := p.LowLatencyPath(src, dst)
	if !ok {
		t.Fatal("no path before fault")
	}
	p.MarkPlaneDown(0)
	during, ok := p.LowLatencyPath(src, dst)
	if !ok || during.Plane(p.Topo.G) != 1 {
		t.Fatalf("path during outage = %v ok=%v, want plane 1", during, ok)
	}
	p.MarkPlaneUp(0)
	restored, ok := p.LowLatencyPath(src, dst)
	if !ok {
		t.Fatal("no path after re-up")
	}
	if !restored.Equal(orig) {
		t.Errorf("restored path %v != original %v", restored, orig)
	}
	if !p.planeUp[0] || !p.planeUp[1] {
		t.Error("plane status not restored")
	}
	// The graph view must round-trip too: every plane-0 host link back up.
	for h := range p.Topo.Uplinks {
		if !p.Topo.G.Link(p.Topo.Uplinks[h][0]).Up || !p.Topo.G.Link(p.Topo.Downlinks[h][0]).Up {
			t.Fatalf("host %d plane-0 links not restored", h)
		}
	}
}
