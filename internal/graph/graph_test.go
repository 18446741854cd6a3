package graph

import (
	"testing"
	"testing/quick"
)

// line builds a simple chain 0-1-2-...-n-1 with duplex 100G links.
func line(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddDuplex(NodeID(i), NodeID(i+1), 100, 0)
	}
	return g
}

// diamond builds src(0) -> {1,2} -> dst(3) plus a longer detour 0-4-5-3.
func diamond() *Graph {
	g := New(6)
	g.AddDuplex(0, 1, 100, 0)
	g.AddDuplex(0, 2, 100, 0)
	g.AddDuplex(1, 3, 100, 0)
	g.AddDuplex(2, 3, 100, 0)
	g.AddDuplex(0, 4, 100, 0)
	g.AddDuplex(4, 5, 100, 0)
	g.AddDuplex(5, 3, 100, 0)
	return g
}

func TestAddLinkBookkeeping(t *testing.T) {
	g := New(3)
	ab, ba := g.AddDuplex(0, 1, 40, 2)
	if g.NumLinks() != 2 {
		t.Fatalf("NumLinks = %d, want 2", g.NumLinks())
	}
	l := g.Link(ab)
	if l.Src != 0 || l.Dst != 1 || l.Capacity != 40 || l.Plane != 2 || !l.Up {
		t.Errorf("link ab = %+v", l)
	}
	if got := g.Link(ba); got.Src != 1 || got.Dst != 0 {
		t.Errorf("link ba = %+v", got)
	}
	if fz := g.Frozen(); len(fz.OutLinks(0)) != 1 || len(fz.InLinks(0)) != 1 {
		t.Errorf("adjacency of node 0 = out %v in %v", fz.OutLinks(0), fz.InLinks(0))
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddLink(0,0) did not panic")
		}
	}()
	New(1).AddLink(0, 0, 1, 0)
}

func TestHopDistancesLine(t *testing.T) {
	g := line(5)
	d := HopDistances(g, 0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
}

func TestHopDistancesUnreachable(t *testing.T) {
	g := New(3)
	g.AddDuplex(0, 1, 100, 0)
	d := HopDistances(g, 0)
	if d[2] != -1 {
		t.Errorf("dist[2] = %d, want -1", d[2])
	}
}

func TestHopDistancesRespectsDownLinks(t *testing.T) {
	g := line(3)
	// Take down both directions of the 1-2 hop.
	for _, id := range g.Frozen().OutLinks(1) {
		if g.Link(id).Dst == 2 {
			g.SetLinkUp(id, false)
		}
	}
	d := HopDistances(g, 0)
	if d[2] != -1 {
		t.Errorf("dist[2] = %d after link down, want -1", d[2])
	}
}

func TestNoTransitThroughHosts(t *testing.T) {
	// 0 -- 1 -- 2 where 1 is a host: 0 cannot reach 2.
	g := line(3)
	g.SetTransit(1, false)
	if d := HopDistances(g, 0); d[2] != -1 {
		t.Errorf("dist through host = %d, want -1", d[2])
	}
	if ps := KShortestPathsMasked(g, 0, 2, 1, nil); len(ps) != 0 {
		t.Error("found a path through a host")
	}
	// But the host itself remains reachable.
	if d := HopDistances(g, 0); d[1] != 1 {
		t.Errorf("dist to host = %d, want 1", d[1])
	}
}

func TestShortestPathDiamond(t *testing.T) {
	g := diamond()
	ps := KShortestPathsMasked(g, 0, 3, 1, nil)
	if len(ps) == 0 {
		t.Fatal("no path found")
	}
	p := ps[0]
	if p.Len() != 2 {
		t.Errorf("path length = %d, want 2", p.Len())
	}
	if !p.Valid(g) {
		t.Errorf("path %v invalid", p.Links)
	}
	if p.Src(g) != 0 || p.Dst(g) != 3 {
		t.Errorf("endpoints = %d -> %d", p.Src(g), p.Dst(g))
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := line(2)
	if ps := KShortestPathsMasked(g, 0, 0, 1, nil); len(ps) != 0 {
		t.Error("found path from node to itself")
	}
}

func TestPathNodes(t *testing.T) {
	g := line(4)
	p := KShortestPathsMasked(g, 0, 3, 1, nil)[0]
	nodes := p.Nodes(g)
	want := []NodeID{0, 1, 2, 3}
	if len(nodes) != len(want) {
		t.Fatalf("nodes = %v", nodes)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("nodes = %v, want %v", nodes, want)
		}
	}
}

func TestPathValidRejectsBroken(t *testing.T) {
	g := diamond()
	p := KShortestPathsMasked(g, 0, 3, 1, nil)[0]
	// Non-contiguous: duplicate the first link.
	bad := Path{Links: []LinkID{p.Links[0], p.Links[0]}}
	if bad.Valid(g) {
		t.Error("non-contiguous path reported valid")
	}
	if (Path{}).Valid(g) {
		t.Error("empty path reported valid")
	}
	// Down link invalidates.
	g.SetLinkUp(p.Links[0], false)
	if p.Valid(g) {
		t.Error("path over down link reported valid")
	}
}

// nextHops returns u's next hops in the DAG.
func nextHops(d *DAG, u NodeID) []LinkID { return d.links[d.off[u]:d.off[u+1]] }

func TestShortestDAGDiamond(t *testing.T) {
	g := diamond()
	dag := ShortestDAG(g, 3, nil)
	if len(nextHops(dag, 0)) != 2 {
		t.Errorf("node 0 next hops = %d, want 2 (via 1 and 2)", len(nextHops(dag, 0)))
	}
	for _, id := range nextHops(dag, 0) {
		d := g.Link(id).Dst
		if d != 1 && d != 2 {
			t.Errorf("unexpected next hop %d", d)
		}
	}
	// Node 4 is on the long detour only; it still has a next hop toward 3
	// (through 5), since from 4 the shortest path is 4-5-3.
	if len(nextHops(dag, 4)) != 1 || g.Link(nextHops(dag, 4)[0]).Dst != 5 {
		t.Errorf("node 4 dag = %v", nextHops(dag, 4))
	}
}

func TestECMPPathDeterministic(t *testing.T) {
	g := diamond()
	dag := ShortestDAG(g, 3, nil)
	p1, ok1 := ECMPPath(dag, 0, 12345)
	p2, ok2 := ECMPPath(dag, 0, 12345)
	if !ok1 || !ok2 {
		t.Fatal("ECMP path not found")
	}
	if !p1.Equal(p2) {
		t.Error("same hash produced different ECMP paths")
	}
	if p1.Len() != 2 {
		t.Errorf("ECMP path length = %d, want 2", p1.Len())
	}
	if !p1.Valid(g) {
		t.Error("ECMP path invalid")
	}
}

func TestECMPPathSpreads(t *testing.T) {
	g := diamond()
	dag := ShortestDAG(g, 3, nil)
	used := map[NodeID]bool{}
	for h := uint64(0); h < 64; h++ {
		p, ok := ECMPPath(dag, 0, h)
		if !ok {
			t.Fatal("no path")
		}
		used[g.Link(p.Links[0]).Dst] = true
	}
	if !used[1] || !used[2] {
		t.Errorf("ECMP used only next hops %v, want both 1 and 2", used)
	}
}

func TestKShortestPathsDiamond(t *testing.T) {
	g := diamond()
	paths := KShortestPathsMasked(g, 0, 3, 10, nil)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	wantLens := []int{2, 2, 3}
	for i, p := range paths {
		if p.Len() != wantLens[i] {
			t.Errorf("path %d length = %d, want %d", i, p.Len(), wantLens[i])
		}
		if !p.Valid(g) {
			t.Errorf("path %d invalid: %v", i, p.Links)
		}
		if p.Src(g) != 0 || p.Dst(g) != 3 {
			t.Errorf("path %d endpoints wrong", i)
		}
	}
	// All distinct.
	for i := range paths {
		for j := i + 1; j < len(paths); j++ {
			if paths[i].Equal(paths[j]) {
				t.Errorf("paths %d and %d identical", i, j)
			}
		}
	}
}

func TestKShortestPathsOrdering(t *testing.T) {
	g := diamond()
	paths := KShortestPathsMasked(g, 0, 3, 3, nil)
	for i := 1; i < len(paths); i++ {
		if paths[i].Len() < paths[i-1].Len() {
			t.Errorf("paths out of order: len[%d]=%d < len[%d]=%d",
				i, paths[i].Len(), i-1, paths[i-1].Len())
		}
	}
}

func TestKShortestPathsK1MatchesShortest(t *testing.T) {
	g := diamond()
	paths := KShortestPathsMasked(g, 0, 3, 1, nil)
	if len(paths) != 1 {
		t.Fatalf("got %d paths", len(paths))
	}
	sp, _ := referenceBFS(g, 0, 3)
	if !paths[0].Equal(sp) {
		t.Errorf("KSP[0] %v != BFS shortest %v", paths[0].Links, sp.Links)
	}
}

func TestKShortestPathsUnreachable(t *testing.T) {
	g := New(2)
	if paths := KShortestPathsMasked(g, 0, 1, 4, nil); paths != nil {
		t.Errorf("got %d paths in disconnected graph", len(paths))
	}
}

// TestKShortestLoopless: property-based check on random graphs that every
// returned path is valid (and hence loopless) and that lengths are
// non-decreasing.
func TestKShortestLoopless(t *testing.T) {
	prop := func(seed int64) bool {
		g, src, dst := randomConnected(seed, 12, 24)
		paths := KShortestPathsMasked(g, src, dst, 6, nil)
		prev := 0
		for _, p := range paths {
			if !p.Valid(g) || p.Src(g) != src || p.Dst(g) != dst {
				return false
			}
			if p.Len() < prev {
				return false
			}
			prev = p.Len()
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomConnected builds a random graph guaranteed connected by a ring
// backbone plus extra random chords derived from seed.
func randomConnected(seed int64, n, extra int) (*Graph, NodeID, NodeID) {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddDuplex(NodeID(i), NodeID((i+1)%n), 100, 0)
	}
	s := uint64(seed)
	for i := 0; i < extra; i++ {
		s = splitmix64(s)
		a := NodeID(s % uint64(n))
		s = splitmix64(s)
		b := NodeID(s % uint64(n))
		if a != b {
			g.AddDuplex(a, b, 100, 0)
		}
	}
	return g, 0, NodeID(n / 2)
}

func TestAvgShortestHops(t *testing.T) {
	g := line(4)
	pairs := [][2]NodeID{{0, 1}, {0, 3}, {1, 3}}
	avg, unreach := AvgShortestHops(g, pairs)
	if unreach != 0 {
		t.Fatalf("unreachable = %d", unreach)
	}
	want := (1.0 + 3.0 + 2.0) / 3.0
	if avg != want {
		t.Errorf("avg = %v, want %v", avg, want)
	}
}

func TestAvgShortestHopsUnreachable(t *testing.T) {
	g := New(3)
	g.AddDuplex(0, 1, 100, 0)
	avg, unreach := AvgShortestHops(g, [][2]NodeID{{0, 1}, {0, 2}})
	if unreach != 1 {
		t.Errorf("unreachable = %d, want 1", unreach)
	}
	if avg != 1 {
		t.Errorf("avg = %v, want 1", avg)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := line(3)
	c := g.Clone()
	c.SetLinkUp(0, false)
	if !g.Link(0).Up {
		t.Error("mutating clone affected original")
	}
	c.SetTransit(1, false)
	if !g.Frozen().Transit(1) {
		t.Error("clone shares transit slice")
	}
}

func TestPathPlane(t *testing.T) {
	g := New(4)
	g.AddLink(0, 1, 100, 7)
	g.AddLink(1, 2, 100, 7)
	p := Path{Links: []LinkID{0, 1}}
	if p.Plane(g) != 7 {
		t.Errorf("plane = %d, want 7", p.Plane(g))
	}
	if (Path{}).Plane(g) != -1 {
		t.Error("empty path plane != -1")
	}
}

func TestLinkIDBoundsChecked(t *testing.T) {
	g := line(2) // links 0 and 1
	for _, id := range []LinkID{-1, 2, 99} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("Link(%d) did not panic", id)
					return
				}
				if s, ok := r.(string); !ok || s == "" {
					t.Errorf("Link(%d) panic = %v, want descriptive string", id, r)
				}
			}()
			g.Link(id)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetLinkUp(%d) did not panic", id)
				}
			}()
			g.SetLinkUp(id, false)
		}()
	}
}

// fanChain builds a chain of levels: level i's node fans out to fans[i]
// parallel middle nodes that all rejoin at level i+1's node. It returns
// the graph and the two ends; every end-to-end route is a shortest path.
func fanChain(fans []int) (*Graph, NodeID, NodeID) {
	g := New(1)
	at := NodeID(0)
	for _, n := range fans {
		next := g.AddNode(true)
		for j := 0; j < n; j++ {
			mid := g.AddNode(true)
			g.AddLink(at, mid, 1, 0)
			g.AddLink(mid, next, 1, 0)
		}
		at = next
	}
	return g, 0, at
}

// TestECMPWalkCode: the walk picks what a modulo pick on every hop
// would, its mask shortcut for power-of-two fan-outs included, and every
// route through the fans is reached.
func TestECMPWalkCode(t *testing.T) {
	g, src, dst := fanChain([]int{3, 2, 4, 1, 5})
	dag := ShortestDAG(g, dst, nil)
	routes := map[string]bool{}
	var buf []LinkID
	for h := uint64(0); h < 2048; h++ {
		links, ok := ECMPWalk(dag, src, h, buf[:0])
		buf = links
		if !ok {
			t.Fatalf("hash %d: no route", h)
		}
		// The pick before power-of-two fan-outs took a mask.
		var want []LinkID
		for u, x := src, h; u != dst; {
			x = splitmix64(x)
			next := nextHops(dag, u)
			id := next[x%uint64(len(next))]
			want = append(want, id)
			u = g.Link(id).Dst
		}
		if !(Path{Links: links}).Equal(Path{Links: want}) {
			t.Fatalf("hash %d: walk %v, modulo pick %v", h, links, want)
		}
		routes[Path{Links: links}.key()] = true
	}
	if len(routes) != 3*2*4*1*5 {
		t.Errorf("%d routes, want 120", len(routes))
	}
}
