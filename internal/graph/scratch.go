package graph

import (
	"math"
	"sync"
)

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
	}
	s.epoch++
	if s.epoch == 0 {
		for i := range s.reached {
			s.reached[i] = 0
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

// spHeap is a binary min-heap of (dist, node) pairs whose pop order,
// equal keys included, is container/heap's: push and pop make the same
// comparisons, each a strict <, and reach the same layout. They move a
// hole where container/heap swaps: push slides strictly greater parents
// down and writes the new item once; pop takes the root, puts a +Inf
// sentinel in the vacated last slot, and sinks the old last item from the
// root, so the right child of a node whose left child is the last live
// slot loses the < test to the sentinel exactly as container/heap's
// bounds check skips it. Equal-key pop order decides which of several
// shortest paths becomes Garg–Könemann's parent tree, and
// bench/golden.json pins that trajectory, so arity stays binary and no
// comparison may become <=. TestSPHeapMatchesContainerHeap holds the two
// heaps to one pop sequence under heavy ties.
type spHeap []spItem

type spItem struct {
	dist float64
	node NodeID
}

func (h *spHeap) push(it spItem) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.dist < s[i].dist) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = it
}

func (h *spHeap) pop() spItem {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	s[n] = spItem{dist: math.Inf(1)}
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if s[j+1].dist < s[j].dist {
			j++
		}
		if !(s[j].dist < last.dist) {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = last
	*h = s[:n]
	return top
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
//
// There is no settled set. Keys pop in non-decreasing order and weights
// are non-negative, so a settled v has dist[v] ≤ du ≤ du+w and relaxing
// it never passes the strict < — the reference's done test on relaxation
// never fires. A node is pushed only on a strict improvement, so exactly
// one of its entries carries its final distance and pops first; any entry
// with a larger key is stale.
func (fz *Frozen) Dijkstra(s *Scratch, src NodeID, weight []float64, until NodeID) bool {
	s.begin(fz.NumNodes())
	s.dist[src] = 0
	s.reached[src] = s.epoch
	s.heap.push(spItem{dist: 0, node: src})
	for len(s.heap) > 0 {
		it := s.heap.pop()
		u := it.node
		if it.dist > s.dist[u] {
			continue
		}
		if u == until {
			return true
		}
		if u != src && !fz.transit[u] {
			continue
		}
		du := it.dist
		for _, a := range fz.upArcs[fz.upStart[u]:fz.upStart[u+1]] {
			v := a.dst
			nd := du + weight[a.id]
			if s.reached[v] != s.epoch || nd < s.dist[v] {
				s.dist[v] = nd
				s.parent[v] = a.id
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
	s.begin(fz.NumNodes())
	s.dist[src] = 0
	s.reached[src] = s.epoch
	s.queue = append(s.queue, src)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		if u != src && !fz.transit[u] {
			continue
		}
		du := s.dist[u]
		for _, a := range fz.upArcs[fz.upStart[u]:fz.upStart[u+1]] {
			v := a.dst
			if s.reached[v] == s.epoch || bannedLinks != nil && bannedLinks[a.id] {
				continue
			}
			if bannedNodes != nil && bannedNodes[v] {
				continue
			}
			s.dist[v] = du + 1
			s.parent[v] = a.id
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
