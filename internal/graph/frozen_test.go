package graph

import (
	"container/heap"
	"math/rand"
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

func TestFrozenMirrorsGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 40)
	fz := g.Frozen()
	if fz.NumNodes() != g.NumNodes() || fz.NumLinks() != g.NumLinks() {
		t.Fatalf("size mismatch: %d/%d nodes, %d/%d links",
			fz.NumNodes(), g.NumNodes(), fz.NumLinks(), g.NumLinks())
	}
	for n := 0; n < g.NumNodes(); n++ {
		id := NodeID(n)
		if fz.Transit(id) != g.Transit(id) {
			t.Fatalf("node %d transit mismatch", n)
		}
		out, fout := g.OutLinks(id), fz.OutLinks(id)
		if len(out) != len(fout) {
			t.Fatalf("node %d out-degree mismatch", n)
		}
		for i := range out {
			if out[i] != fout[i] {
				t.Fatalf("node %d out-link order mismatch at %d", n, i)
			}
		}
		in, fin := g.InLinks(id), fz.InLinks(id)
		if len(in) != len(fin) {
			t.Fatalf("node %d in-degree mismatch", n)
		}
		for i := range in {
			if in[i] != fin[i] {
				t.Fatalf("node %d in-link order mismatch at %d", n, i)
			}
		}
	}
	for i := 0; i < g.NumLinks(); i++ {
		id := LinkID(i)
		l := g.Link(id)
		if fz.LinkSrc(id) != l.Src || fz.LinkDst(id) != l.Dst ||
			fz.LinkCap(id) != l.Capacity || fz.LinkUp(id) != l.Up {
			t.Fatalf("link %d field mismatch", i)
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

// referenceBFS is a copy of the historical queue-based BFS that
// ShortestPath used before the CSR port, kept as an independent check of
// discovery order and parent choice.
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
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u != src && !g.Transit(u) {
			continue
		}
		for _, id := range g.OutLinks(u) {
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
			got, gok := ShortestPath(g, src, dst)
			if wok != gok {
				t.Fatalf("trial %d %d->%d: ok %v vs reference %v", trial, src, dst, gok, wok)
			}
			if wok && !got.Equal(want) {
				t.Fatalf("trial %d %d->%d: path %v vs reference %v", trial, src, dst, got.Links, want.Links)
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
// bits, and which is down when w's bit 2 is set.
func FuzzDijkstraMatchesReference(f *testing.F) {
	f.Add([]byte{4, 0, 0, 0, 1, 0, 1, 2, 0, 0, 2, 0, 2, 3, 1})
	f.Add([]byte{6, 1, 0x12, 1, 2, 1, 2, 3, 1, 1, 4, 2, 4, 3, 0, 3, 5, 4, 2, 5, 2, 0, 1, 3})
	f.Add([]byte{8, 7, 0xff, 7, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 0, 4, 0, 4, 5, 1, 5, 6, 7})
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
			w = append(w, weights[rest[2]&3])
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
}

// referenceReverseLink is the historical O(out-degree) scan.
func referenceReverseLink(g *Graph, id LinkID) (LinkID, bool) {
	l := g.Link(id)
	for _, rid := range g.OutLinks(l.Dst) {
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
