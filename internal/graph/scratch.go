package graph

import "sync"

// Scratch holds the reusable working state for repeated path searches on
// a Frozen view: distance/parent arrays, epoch-marked visited sets, an
// interface-free priority queue, and a BFS ring. After the arrays have
// grown to the graph's size once, every further search allocates nothing
// — the visited sets are invalidated by bumping a generation counter
// instead of being cleared, the same trick the sim engine uses for its
// event heap reuse.
//
// A Scratch is single-goroutine state. Concurrent searches need one
// Scratch each; GetScratch/PutScratch pool them across calls.
type Scratch struct {
	dist    []float64
	parent  []LinkID
	reached []uint32 // reached[n] == epoch: dist/parent valid this search
	settled []uint32 // settled[n] == epoch: n popped (Dijkstra) this search
	epoch   uint32
	heap    spHeap
	queue   []NodeID
}

// NewScratch returns an empty scratch space; it grows lazily to fit
// whatever graph it is first used on.
func NewScratch() *Scratch { return &Scratch{} }

var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// GetScratch takes a scratch space from the process-wide pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a scratch space to the pool.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// begin sizes the scratch for an n-node graph and starts a new search
// generation. Marks from previous searches become invalid without any
// clearing; on the (rare) epoch wraparound the mark arrays are zeroed.
func (s *Scratch) begin(n int) {
	if len(s.dist) < n {
		s.dist = make([]float64, n)
		s.parent = make([]LinkID, n)
		s.reached = make([]uint32, n)
		s.settled = make([]uint32, n)
	}
	s.epoch++
	if s.epoch == 0 {
		for i := range s.reached {
			s.reached[i] = 0
			s.settled[i] = 0
		}
		s.epoch = 1
	}
	s.heap = s.heap[:0]
	s.queue = s.queue[:0]
}

// Reached reports whether node n was reached by the last search.
func (s *Scratch) Reached(n NodeID) bool { return s.reached[n] == s.epoch }

// Dist returns the distance assigned to n by the last search; only valid
// when Reached(n) is true.
func (s *Scratch) Dist(n NodeID) float64 { return s.dist[n] }

// spHeap is an interface-free priority queue of (dist, node) pairs that
// replicates container/heap's binary sift-up/sift-down mechanics — and
// with them its pop order among equal-distance entries — exactly. The
// arity is deliberately binary, not 4-ary like the sim engine's
// eventHeap: Dijkstra's comparison keys tie constantly under Garg–
// Könemann's uniform initial lengths, equal-key pop order decides which
// of several shortest paths becomes the parent tree, and the committed
// experiment baselines pin the trajectory the historical container/heap
// oracle produced. Changing arity would silently reroute the solver.
// The win over container/heap is keeping it: no interface boxing, no
// per-push allocation, no dynamic dispatch per comparison.
type spHeap []spItem

type spItem struct {
	dist float64
	node NodeID
}

// push appends it and sifts up, mirroring container/heap.Push: the new
// element rises only past strictly greater parents.
func (h *spHeap) push(it spItem) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the minimum, mirroring container/heap.Pop:
// swap root with last, sift down over the shrunk range, detach last.
func (h *spHeap) pop() spItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2].dist < s[j1].dist {
			j = j2
		}
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}

// Dijkstra runs a shortest-path search from src under the given link
// weights (non-negative), honoring down links and the no-transit-through-
// hosts rule, into the scratch space. If until is a valid node the search
// stops as soon as until settles and reports whether it was reached;
// until < 0 computes the full shortest-path tree and always reports true.
//
// The relaxation order, strict-improvement rule, and equal-distance pop
// order are bit-compatible with WeightedShortestPath, so the parent tree
// — and any path traced from it — matches the historical per-pair oracle
// exactly. After warm-up the search performs no allocations.
func (fz *Frozen) Dijkstra(s *Scratch, src NodeID, weight []float64, until NodeID) bool {
	s.begin(fz.numNodes)
	s.dist[src] = 0
	s.reached[src] = s.epoch
	s.heap.push(spItem{dist: 0, node: src})
	for len(s.heap) > 0 {
		it := s.heap.pop()
		u := it.node
		if s.settled[u] == s.epoch {
			continue
		}
		s.settled[u] = s.epoch
		if u == until {
			return true
		}
		if u != src && !fz.transit[u] {
			continue
		}
		du := s.dist[u]
		for _, id := range fz.outList[fz.outStart[u]:fz.outStart[u+1]] {
			v := fz.linkDst[id]
			if !fz.linkUp[id] || s.settled[v] == s.epoch {
				continue
			}
			nd := du + weight[id]
			if s.reached[v] != s.epoch || nd < s.dist[v] {
				s.dist[v] = nd
				s.parent[v] = id
				s.reached[v] = s.epoch
				s.heap.push(spItem{dist: nd, node: v})
			}
		}
	}
	return until < 0
}

// BFS runs an unweighted (hop count) search from src, honoring down
// links, the transit rule, and the optional banned masks (either may be
// nil). If until is a valid node the search stops as soon as until is
// discovered and reports whether it was; until < 0 sweeps everything
// reachable and always reports true. Discovery order matches the
// *Graph-based BFS implementations link for link, so traced paths are
// identical. Distances are hop counts in Dist. Allocation-free after
// warm-up.
func (fz *Frozen) BFS(s *Scratch, src NodeID, until NodeID, bannedLinks, bannedNodes []bool) bool {
	s.begin(fz.numNodes)
	s.dist[src] = 0
	s.reached[src] = s.epoch
	s.queue = append(s.queue, src)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		if u != src && !fz.transit[u] {
			continue
		}
		du := s.dist[u]
		for _, id := range fz.outList[fz.outStart[u]:fz.outStart[u+1]] {
			if bannedLinks != nil && bannedLinks[id] {
				continue
			}
			v := fz.linkDst[id]
			if !fz.linkUp[id] || s.reached[v] == s.epoch {
				continue
			}
			if bannedNodes != nil && bannedNodes[v] {
				continue
			}
			s.dist[v] = du + 1
			s.parent[v] = id
			s.reached[v] = s.epoch
			if v == until {
				return true
			}
			s.queue = append(s.queue, v)
		}
	}
	return until < 0
}

// AppendPath traces the search tree in s from src to dst and appends the
// path's links, in forward order, to buf — reusing buf's capacity, so a
// caller that recycles its buffer gets an allocation-free trace. dst must
// have been reached by the last search on s.
func (fz *Frozen) AppendPath(s *Scratch, src, dst NodeID, buf []LinkID) []LinkID {
	start := len(buf)
	for n := dst; n != src; {
		id := s.parent[n]
		buf = append(buf, id)
		n = fz.linkSrc[id]
	}
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// PathTo returns the path from src to dst traced from the last search on
// s as a freshly allocated Path.
func (fz *Frozen) PathTo(s *Scratch, src, dst NodeID) Path {
	return Path{Links: fz.AppendPath(s, src, dst, nil)}
}
