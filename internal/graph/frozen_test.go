package graph

import (
	"container/heap"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// randomGraph builds a random connected-ish multigraph with duplex links,
// a sprinkling of non-transit hosts on the rim, and two plane tags, to
// exercise every field the frozen view snapshots.
func randomGraph(rng *rand.Rand, n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddDuplex(NodeID(rng.Intn(i)), NodeID(i), 40+float64(rng.Intn(3))*30, int32(rng.Intn(2)))
	}
	for e := 0; e < 2*n; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddDuplex(NodeID(a), NodeID(b), 100, int32(rng.Intn(2)))
		}
	}
	for i := 0; i < n/4; i++ {
		g.SetTransit(NodeID(rng.Intn(n)), false)
	}
	for i := 0; i < n/5; i++ {
		g.SetLinkUp(LinkID(rng.Intn(g.NumLinks())), false)
	}
	return g
}

// fatTree returns a k-ary fat tree: the k³/4 hosts first, non-transit,
// then per pod k/2 edge and k/2 aggregation switches, then the core.
func fatTree(k int) *Graph {
	half, hosts := k/2, k*k*k/4
	g := New(hosts + k*k + half*half)
	sw := func(i int) NodeID { return NodeID(hosts + i) }
	for e := 0; e < k*half; e++ { // edge switch e of pod e/half
		pod := e / half
		for i := 0; i < half; i++ {
			g.SetTransit(NodeID(e*half+i), false)
			g.AddDuplex(NodeID(e*half+i), sw(pod*k+e%half), 100, 0)
		}
		for a := 0; a < half; a++ {
			g.AddDuplex(sw(pod*k+e%half), sw(pod*k+half+a), 100, 0)
			g.AddDuplex(sw(pod*k+half+a), sw(k*k+a*half+e%half), 100, 0)
		}
	}
	return g
}

// jellyfish returns switches joined at random by pairing shuffled free
// ports, degree a switch, with one non-transit host on each; hosts first.
func jellyfish(rng *rand.Rand, switches, degree int) *Graph {
	g := New(2 * switches)
	ports := rng.Perm(switches * degree)
	for h := 0; h < switches; h++ {
		g.SetTransit(NodeID(h), false)
		g.AddDuplex(NodeID(h), NodeID(switches+h), 100, 0)
	}
	for i := 0; i+1 < len(ports); i += 2 {
		if a, b := ports[i]%switches, ports[i+1]%switches; a != b {
			g.AddDuplex(NodeID(switches+a), NodeID(switches+b), 100, 0)
		}
	}
	return g
}

// TestFrozenMirrorsGraph holds every CSR list of the snapshot to a
// scan of the links in ID order: a node's out-list is the links it is
// the source of, its in-list the links it is the destination of, and its
// up-arc list its up out-links with their far ends. Per-link arrays and
// transit flags must copy the graph's.
func TestFrozenMirrorsGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, g := range map[string]*Graph{
		"fat tree k=4":           fatTree(4),
		"jellyfish 12x3":         jellyfish(rng, 12, 3),
		"random with down links": randomGraph(rng, 40),
	} {
		fz := g.Frozen()
		if fz.NumNodes() != g.NumNodes() || fz.NumLinks() != g.NumLinks() {
			t.Fatalf("%s: %d/%d nodes, %d/%d links", name, fz.NumNodes(), g.NumNodes(), fz.NumLinks(), g.NumLinks())
		}
		for n := 0; n < g.NumNodes(); n++ {
			u := NodeID(n)
			var out, in []LinkID
			var up []arc
			for _, l := range g.links {
				if l.Src == u {
					out = append(out, l.ID)
					if l.Up {
						up = append(up, arc{l.Dst, l.ID})
					}
				}
				if l.Dst == u {
					in = append(in, l.ID)
				}
			}
			if got := fz.OutLinks(u); !slices.Equal(got, out) {
				t.Fatalf("%s: node %d out-list %v, scan %v", name, n, got, out)
			}
			if got := fz.InLinks(u); !slices.Equal(got, in) {
				t.Fatalf("%s: node %d in-list %v, scan %v", name, n, got, in)
			}
			if got := fz.upArcs[fz.upStart[u]:fz.upStart[u+1]]; !slices.Equal(got, up) {
				t.Fatalf("%s: node %d up arcs %v, scan %v", name, n, got, up)
			}
			if fz.Transit(u) != g.transit[n] {
				t.Fatalf("%s: node %d transit mismatch", name, n)
			}
		}
		for _, l := range g.links {
			if id := l.ID; fz.LinkSrc(id) != l.Src || fz.LinkDst(id) != l.Dst || fz.LinkCap(id) != l.Capacity || fz.LinkUp(id) != l.Up {
				t.Fatalf("%s: link %d field mismatch", name, id)
			}
		}
	}
}

func TestFrozenCachesAndInvalidates(t *testing.T) {
	g := line(5)
	fz := g.Frozen()
	if g.Frozen() != fz {
		t.Fatal("unchanged graph should share one snapshot")
	}
	g.SetLinkUp(0, false)
	fz2 := g.Frozen()
	if fz2 == fz {
		t.Fatal("SetLinkUp must invalidate the snapshot")
	}
	if fz2.LinkUp(0) {
		t.Fatal("rebuilt snapshot must see the down link")
	}
	if !fz.LinkUp(0) {
		t.Fatal("old snapshot is immutable")
	}
	g.SetCapacity(1, 7)
	if g.Frozen() == fz2 {
		t.Fatal("SetCapacity must invalidate the snapshot")
	}
	if got := g.Frozen().LinkCap(1); got != 7 {
		t.Fatalf("capacity not refreshed: %v", got)
	}
	g.AddNode(true)
	if g.Frozen().NumNodes() != 6 {
		t.Fatal("AddNode must invalidate the snapshot")
	}
}

// referenceBFS is a copy of the historical queue-based BFS that the
// single shortest path used before the CSR port, kept as an independent
// check of discovery order and parent choice.
func referenceBFS(g *Graph, src, dst NodeID) (Path, bool) {
	if src == dst {
		return Path{}, false
	}
	parent := make([]LinkID, g.NumNodes())
	for i := range parent {
		parent[i] = -1
	}
	visited := make([]bool, g.NumNodes())
	visited[src] = true
	fz := g.Frozen()
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u != src && !fz.Transit(u) {
			continue
		}
		for _, id := range fz.OutLinks(u) {
			l := g.Link(id)
			if !l.Up || visited[l.Dst] {
				continue
			}
			visited[l.Dst] = true
			parent[l.Dst] = id
			if l.Dst == dst {
				return tracePath(g, parent, src, dst), true
			}
			queue = append(queue, l.Dst)
		}
	}
	return Path{}, false
}

func TestFrozenBFSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 30)
		for pair := 0; pair < 30; pair++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			dst := NodeID(rng.Intn(g.NumNodes()))
			want, wok := referenceBFS(g, src, dst)
			got := KShortestPathsMasked(g, src, dst, 1, nil)
			if wok != (len(got) > 0) {
				t.Fatalf("trial %d %d->%d: %d paths vs reference ok %v", trial, src, dst, len(got), wok)
			}
			if wok && !got[0].Equal(want) {
				t.Fatalf("trial %d %d->%d: path %v vs reference %v", trial, src, dst, got[0].Links, want.Links)
			}
		}
	}
}

// TestFrozenDijkstraMatchesReference drives the scratch-space Dijkstra
// against WeightedShortestPath on weight vectors full of exact ties —
// the regime the Garg–Könemann solver lives in, where equal-distance
// heap pop order decides the parent tree. Paths and distances must be
// bit-identical, whether the search terminates at dst or computes the
// full tree first.
func TestFrozenDijkstraMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tieWeights := []float64{1, 1, 1, 2, 0.5}
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 30)
		fz := g.Frozen()
		w := make([]float64, g.NumLinks())
		for i := range w {
			w[i] = tieWeights[rng.Intn(len(tieWeights))]
		}
		s := NewScratch()
		full := NewScratch()
		for pair := 0; pair < 30; pair++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			dst := NodeID(rng.Intn(g.NumNodes()))
			if src == dst {
				continue
			}
			want, wd, wok := WeightedShortestPath(g, src, dst, w)
			gok := fz.Dijkstra(s, src, w, dst)
			if wok != gok {
				t.Fatalf("trial %d %d->%d: ok %v vs reference %v", trial, src, dst, gok, wok)
			}
			if !wok {
				continue
			}
			got := fz.PathTo(s, src, dst)
			if !got.Equal(want) {
				t.Fatalf("trial %d %d->%d: path %v vs reference %v", trial, src, dst, got.Links, want.Links)
			}
			if gd := s.Dist(dst); gd != wd {
				t.Fatalf("trial %d %d->%d: dist %v vs reference %v", trial, src, dst, gd, wd)
			}
			// The full tree must agree with the early-terminated search.
			fz.Dijkstra(full, src, w, -1)
			if !full.Reached(dst) {
				t.Fatalf("trial %d: full tree misses %d", trial, dst)
			}
			if tp := fz.PathTo(full, src, dst); !tp.Equal(want) {
				t.Fatalf("trial %d %d->%d: tree path %v vs reference %v", trial, src, dst, tp.Links, want.Links)
			}
		}
	}
}

// TestSPHeapMatchesContainerHeap drives spHeap and a container/heap
// queue through one random interleaving of pushes and pops with keys
// drawn from three values, so nearly every comparison is a tie. The pop
// sequences must agree in node as well as distance: equal-key pop order
// is what picks Garg–Könemann's parent tree.
func TestSPHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	keys := []float64{0.5, 1, 2}
	for trial := 0; trial < 200; trial++ {
		var h spHeap
		ref := &nodeHeap{}
		next := NodeID(0)
		ops := 1 + rng.Intn(300)
		for op := 0; op < ops || len(h) > 0; op++ {
			if op < ops && (len(h) == 0 || rng.Intn(5) < 3) {
				d := keys[rng.Intn(len(keys))]
				h.push(spItem{dist: d, node: next})
				heap.Push(ref, nodeItem{node: next, dist: d})
				next++
				continue
			}
			got, want := h.pop(), heap.Pop(ref).(nodeItem)
			if got.dist != want.dist || got.node != want.node {
				t.Fatalf("trial %d op %d: pop (%v, %d), container/heap (%v, %d)",
					trial, op, got.dist, got.node, want.dist, want.node)
			}
		}
	}
}

// FuzzDijkstraMatchesReference turns bytes into a small graph with
// non-transit nodes, down links and tie-heavy weights, and holds
// Frozen.Dijkstra to WeightedShortestPath from one source to every
// other node: same reachability, path and distance, whether the search
// stops at the destination or builds the full tree. Byte 0 is the node
// count, byte 1 the source, byte 2 the non-transit mask; each later
// triple (a, b, w) adds a link a→b whose weight is chosen by w's low two
// bits, or is 1e-300 when w's bit 3 is set, and which is down when w's
// bit 2 is set. 1e-300 vanishes when added to 0.5 or 1, as GK's lengths
// on huge-capacity links vanish beside a switch's distance, so a node
// can tie the node it is reached from.
func FuzzDijkstraMatchesReference(f *testing.F) {
	f.Add([]byte{4, 0, 0, 0, 1, 0, 1, 2, 0, 0, 2, 0, 2, 3, 1})
	f.Add([]byte{6, 1, 0x12, 1, 2, 1, 2, 3, 1, 1, 4, 2, 4, 3, 0, 3, 5, 4, 2, 5, 2, 0, 1, 3})
	f.Add([]byte{8, 7, 0xff, 7, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 0, 4, 0, 4, 5, 1, 5, 6, 7})
	// Every weight is 0. Without leaf 5's heap entry node 2 pops before
	// node 0, and node 4 pops while node 0, which the full search expands
	// first and which becomes 4's parent there, still waits at distance 0.
	f.Add([]byte{5, 6, 32, 6, 5, 0, 2, 4, 0, 6, 2, 0, 6, 0, 0, 6, 1, 0, 0, 4, 0})
	// Nodes 9 and 2 both offer node 10 distance 0.5, the 1e-300s before
	// them absorbed, and leaf 4's heap entry decides which pops first.
	f.Add([]byte{9, 8, 16, 9, 10, 1, 8, 7, 0, 8, 0, 8, 2, 10, 1, 0, 9, 8, 3, 4, 0, 8, 3, 8, 0, 2, 8})
	weights := []float64{0, 0.5, 1, 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%10
		src := NodeID(int(data[1]) % n)
		g := New(n)
		for i := 0; i < n && i < 8; i++ {
			if data[2]&(1<<i) != 0 {
				g.SetTransit(NodeID(i), false)
			}
		}
		var w []float64
		for rest := data[3:]; len(rest) >= 3; rest = rest[3:] {
			a, b := NodeID(int(rest[0])%n), NodeID(int(rest[1])%n)
			if a == b {
				continue
			}
			id := g.AddLink(a, b, 100, 0)
			wt := weights[rest[2]&3]
			if rest[2]&8 != 0 {
				wt = 1e-300
			}
			w = append(w, wt)
			if rest[2]&4 != 0 {
				g.SetLinkUp(id, false)
			}
		}
		fz := g.Frozen()
		s, full := NewScratch(), NewScratch()
		fz.Dijkstra(full, src, w, -1)
		for dst := NodeID(0); int(dst) < n; dst++ {
			if dst == src {
				continue
			}
			want, wd, wok := WeightedShortestPath(g, src, dst, w)
			if gok := fz.Dijkstra(s, src, w, dst); gok != wok {
				t.Fatalf("%d->%d: ok %v, reference %v", src, dst, gok, wok)
			}
			if full.Reached(dst) != wok {
				t.Fatalf("%d->%d: full tree reached %v, reference %v", src, dst, full.Reached(dst), wok)
			}
			if !wok {
				continue
			}
			if got := fz.PathTo(s, src, dst); !got.Equal(want) || s.Dist(dst) != wd {
				t.Fatalf("%d->%d: path %v dist %v, reference %v dist %v", src, dst, got.Links, s.Dist(dst), want.Links, wd)
			}
			if got := fz.PathTo(full, src, dst); !got.Equal(want) || full.Dist(dst) != wd {
				t.Fatalf("%d->%d: tree path %v dist %v, reference %v dist %v", src, dst, got.Links, full.Dist(dst), want.Links, wd)
			}
		}
	})
}

// rackedPlanes is workload.RackAllToAll's graph in miniature: planes
// copies of one random switch graph; per rack a non-transit host on its
// switch in every plane, and a non-transit rack node joined to that
// switch in every plane by a 1e9 link. It returns the rack nodes.
func rackedPlanes(rng *rand.Rand, racks, degree, planes int) (*Graph, []NodeID) {
	g := New((planes + 2) * racks)
	sw := func(p, r int) NodeID { return NodeID(p*racks + r) }
	ports := rng.Perm(racks * degree)
	rack := make([]NodeID, racks)
	for p := 0; p < planes; p++ {
		for i := 0; i+1 < len(ports); i += 2 {
			if a, b := ports[i]%racks, ports[i+1]%racks; a != b {
				g.AddDuplex(sw(p, a), sw(p, b), 100, int32(p))
			}
		}
	}
	for r := 0; r < racks; r++ {
		host, rn := NodeID(planes*racks+r), NodeID((planes+1)*racks+r)
		g.SetTransit(host, false)
		g.SetTransit(rn, false)
		rack[r] = rn
		for p := 0; p < planes; p++ {
			g.AddDuplex(host, sw(p, r), 100, int32(p))
			g.AddDuplex(rn, sw(p, r), 1e9, int32(p))
		}
	}
	return g, rack
}

// TestLeafSearchCertificate runs Garg–Könemann-like length updates on
// rack-shaped graphs and checks every leaf search against the reference.
// Lengths start at δ/capacity, so identical planes tie exactly; grown,
// a rack link's length vanishes beside its switch's distance, so a rack
// node ties its ToR. Each search is certified or not; both must happen,
// for both reasons, and a certified path and distance must be the
// reference's.
func TestLeafSearchCertificate(t *testing.T) {
	var certified, atKey, onPath int
	for seed := int64(1); seed <= 4; seed++ {
		for _, grown := range []float64{1, 1e36} {
			rng := rand.New(rand.NewSource(seed))
			g, rack := rackedPlanes(rng, 8, 3, 1+int(seed)%4)
			fz := g.Frozen()
			w := make([]float64, g.NumLinks())
			for id := range w {
				w[id] = 1e-38 / fz.LinkCap(LinkID(id))
				if fz.LinkCap(LinkID(id)) < 1e9 {
					w[id] *= grown
				}
			}
			s := NewScratch()
			for round := 0; round < 10; round++ {
				for _, src := range rack {
					for _, dst := range rack {
						if src == dst {
							continue
						}
						want, wd, wok := WeightedShortestPath(g, src, dst, w)
						ok, cert := fz.leafSearch(s, src, w, dst)
						if ok != wok {
							t.Fatalf("seed %d %d->%d: reached %v, reference %v", seed, src, dst, ok, wok)
						}
						switch {
						case cert:
							certified++
							if got := fz.PathTo(s, src, dst); !got.Equal(want) || s.Dist(dst) != wd {
								t.Fatalf("seed %d grown %g round %d %d->%d: certified path %v dist %v, reference %v dist %v",
									seed, grown, round, src, dst, got.Links, s.Dist(dst), want.Links, wd)
							}
						case len(s.heap) > 0 && s.heap[0].dist == s.Dist(dst):
							atKey++
						default:
							onPath++
						}
						for _, id := range want.Links {
							w[id] *= 1 + 0.08*100/fz.LinkCap(id)
						}
					}
				}
			}
		}
	}
	if certified == 0 || atKey == 0 || onPath == 0 {
		t.Fatalf("want every outcome: %d certified, %d with a rival at the key, %d tied on the path", certified, atKey, onPath)
	}
}

// TestScratchZeroAlloc is the graph-level half of the solver's
// allocation-regression guard: once warm, Dijkstra, BFS, and path
// tracing into a recycled buffer must not allocate.
func TestScratchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 64)
	fz := g.Frozen()
	w := make([]float64, g.NumLinks())
	for i := range w {
		w[i] = 1 + rng.Float64()
	}
	s := NewScratch()
	var buf []LinkID
	run := func() {
		fz.Dijkstra(s, 0, w, -1)
		for n := 1; n < fz.NumNodes(); n++ {
			if s.Reached(NodeID(n)) && fz.Transit(NodeID(n)) {
				buf = fz.AppendPath(s, 0, NodeID(n), buf[:0])
				break
			}
		}
		fz.BFS(s, 0, -1, nil, nil)
	}
	run() // warm: grow arrays, heap, queue, buffer
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("warm scratch search allocates %v allocs/run, want 0", avg)
	}
}

func TestScratchEpochWraparound(t *testing.T) {
	g := line(6)
	fz := g.Frozen()
	s := NewScratch()
	fz.BFS(s, 0, -1, nil, nil)
	if !s.Reached(5) {
		t.Fatal("node 5 should be reached")
	}
	s.epoch = ^uint32(0) // next begin() wraps to 0 and must clear marks
	fz.BFS(s, 5, -1, nil, nil)
	if !s.Reached(0) || s.epoch != 1 {
		t.Fatalf("wraparound search broken: reached(0)=%v epoch=%d", s.Reached(0), s.epoch)
	}
	if got := s.Dist(0); got != 5 {
		t.Fatalf("dist after wraparound = %v, want 5", got)
	}

	// The leaf search across a wraparound, after a search that left a tie
	// mark: unit lengths on two identical planes tie the rack node. The
	// mark must not outlive its search and refuse one with no ties.
	rng := rand.New(rand.NewSource(2))
	g, rack := rackedPlanes(rng, 8, 3, 2)
	fz = g.Frozen()
	src, dst := rack[0], rack[1]
	w := make([]float64, g.NumLinks())
	for i := range w {
		w[i] = 1
	}
	s = NewScratch()
	if _, cert := fz.leafSearch(s, src, w, dst); cert {
		t.Fatal("tied planes gave a certified search")
	}
	for i := range w {
		w[i] = 1 + rng.Float64()
	}
	fresh := NewScratch()
	fz.Dijkstra(fresh, src, w, dst)
	s.epoch = ^uint32(0)
	if ok, cert := fz.leafSearch(s, src, w, dst); !ok || !cert || s.epoch != 1 {
		t.Fatalf("leaf search after wraparound: reached %v certified %v epoch %d", ok, cert, s.epoch)
	}
	s.epoch = ^uint32(0)
	fz.Dijkstra(s, src, w, dst)
	if got, want := fz.PathTo(s, src, dst), fz.PathTo(fresh, src, dst); !got.Equal(want) || s.Dist(dst) != fresh.Dist(dst) {
		t.Fatalf("Dijkstra after wraparound: path %v dist %v, fresh scratch %v dist %v", got.Links, s.Dist(dst), want.Links, fresh.Dist(dst))
	}
}

// referenceReverseLink is the historical O(out-degree) scan.
func referenceReverseLink(g *Graph, id LinkID) (LinkID, bool) {
	l := g.Link(id)
	for _, rid := range g.Frozen().OutLinks(l.Dst) {
		r := g.Link(rid)
		if r.Dst == l.Src && r.Plane == l.Plane {
			return rid, true
		}
	}
	return 0, false
}

func TestReverseLinkMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 24)
	// A one-way link with no twin, and parallel duplex pairs (the cache
	// must pick the same first match as the scan).
	g.AddLink(0, 5, 10, 0)
	g.AddDuplex(1, 2, 10, 1)
	g.AddDuplex(1, 2, 10, 1)
	for i := 0; i < g.NumLinks(); i++ {
		want, wok := referenceReverseLink(g, LinkID(i))
		got, gok := g.ReverseLink(LinkID(i))
		if wok != gok || (wok && got != want) {
			t.Fatalf("link %d: twin (%d,%v), scan says (%d,%v)", i, got, gok, want, wok)
		}
	}
}

func TestReverseLinkInvalidatesOnGrowth(t *testing.T) {
	g := New(3)
	ab, _ := g.AddDuplex(0, 1, 100, 0)
	bc := g.AddLink(1, 2, 100, 0)
	if _, ok := g.ReverseLink(bc); ok {
		t.Fatal("one-way link should have no twin yet")
	}
	cb := g.AddLink(2, 1, 100, 0)
	if rid, ok := g.ReverseLink(bc); !ok || rid != cb {
		t.Fatalf("twin table stale after AddLink: got (%d,%v)", rid, ok)
	}
	if rid, ok := g.ReverseLink(ab); !ok || rid != ab+1 {
		t.Fatalf("duplex twin wrong: got (%d,%v)", rid, ok)
	}
}

// TestReverseLinkConcurrent hammers the lazily built twin table from
// many goroutines; under -race this proves the once-per-graph build is
// safe for the parallel ACK-route construction the transports do.
func TestReverseLinkConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				id := LinkID(r.Intn(g.NumLinks()))
				want, wok := referenceReverseLink(g, id)
				got, gok := g.ReverseLink(id)
				if wok != gok || (wok && got != want) {
					t.Errorf("link %d: twin (%d,%v), scan says (%d,%v)", id, got, gok, want, wok)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

func TestSetCapacityBounds(t *testing.T) {
	g := line(3)
	g.SetCapacity(0, 42) // in range: fine
	if got := g.Link(0).Capacity; got != 42 {
		t.Fatalf("capacity = %v, want 42", got)
	}
	for _, id := range []LinkID{-1, LinkID(g.NumLinks())} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("SetCapacity(%d) did not panic", id)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "out of range") {
					t.Fatalf("SetCapacity(%d) panic %v, want named out-of-range message", id, r)
				}
			}()
			g.SetCapacity(id, 1)
		}()
	}
}
