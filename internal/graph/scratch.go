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
	tied    []bool   // tied[n]: a second node offered n its dist (leaf search only)
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
		// The smaller child by the same strict <, added rather than
		// branched on: the compiler emits a SETcc, and which child wins
		// is a coin flip the branch predictor would miss half the time.
		j += b2i(s[j+1].dist < s[j].dist)
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

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Dijkstra runs a shortest-path search from src under the given link
// weights (non-negative), honoring down links and the no-transit-through-
// hosts rule, into the scratch space. If until is a valid node the search
// stops as soon as until settles and reports whether it was reached;
// until < 0 computes the full shortest-path tree and always reports true.
//
// The path traced to until, and its distance, equal WeightedShortestPath's
// bit for bit; the equivalence is certified per search, not by one pop
// order. A search to until first runs leafSearch, which skips the
// non-transit leaves, and keeps its result only when it is certified.
// Otherwise, and for until < 0, it runs fullSearch, whose relaxation
// order, strict-improvement rule and equal-distance pop order are the
// reference's, so its whole parent tree is the reference's too. After
// warm-up the search performs no allocations.
func (fz *Frozen) Dijkstra(s *Scratch, src NodeID, weight []float64, until NodeID) bool {
	if until >= 0 {
		if ok, certified := fz.leafSearch(s, src, weight, until); certified {
			return ok
		}
	}
	return fz.fullSearch(s, src, weight, until)
}

// fullSearch is the reference's search, node for node and pop for pop.
//
// There is no settled set. Keys pop in non-decreasing order and weights
// are non-negative, so a settled v has dist[v] ≤ du ≤ du+w and relaxing
// it never passes the strict < — the reference's done test on relaxation
// never fires. A node is pushed only on a strict improvement, so exactly
// one of its entries carries its final distance and pops first; any entry
// with a larger key is stale.
func (fz *Frozen) fullSearch(s *Scratch, src NodeID, weight []float64, until NodeID) bool {
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

// leafSearch is fullSearch to until without the non-transit leaves: an
// arc is relaxed only into a transit node or into until. A leaf is never
// expanded, so every distance fullSearch settles by the time until pops
// is the same here. Parents are not: a leaf's heap entry moves the
// layout, and with it which of two equal keys pops first, and the node
// that pops first sets the parent of any node both offer the same
// distance. certified reports that no such choice touched the path:
//
//   - (a) the heap holds no key equal to dist[until]. No key is below it,
//     so every transit node at most that far has then popped and relaxed
//     here: one not yet popped would wait at that key, or a node on its
//     shortest path would. fullSearch may stop before some of them; it
//     sees a subset of these relaxations. A weight may vanish in the
//     addition (du + w == du), so until can pop while a rival with its
//     key still waits.
//   - (b) no node on the path from until back to src is tied: no node
//     other than its parent's source offered it its distance. Then
//     fullSearch's first relaxation to reach that distance comes from the
//     same node over the same arc.
//
// When until is unreachable, leaves do not change that, and the false
// result is certified. A node's first relaxation in a search resets its
// tie mark, so marks need no epoch: every node on the path was reached
// in this search. tied is grown here only, so BFS users of a pooled
// Scratch never carry it.
func (fz *Frozen) leafSearch(s *Scratch, src NodeID, weight []float64, until NodeID) (ok, certified bool) {
	n := fz.NumNodes()
	s.begin(n)
	if len(s.tied) < n {
		s.tied = make([]bool, n)
	}
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
			if len(s.heap) > 0 && s.heap[0].dist == it.dist {
				return true, false
			}
			for v := until; v != src; v = fz.linkSrc[s.parent[v]] {
				if s.tied[v] {
					return true, false
				}
			}
			return true, true
		}
		du := it.dist
		for _, a := range fz.upArcs[fz.upStart[u]:fz.upStart[u+1]] {
			v := a.dst
			if v != until && !fz.transit[v] {
				continue
			}
			nd := du + weight[a.id]
			if s.reached[v] != s.epoch || nd < s.dist[v] {
				s.dist[v] = nd
				s.parent[v] = a.id
				s.reached[v] = s.epoch
				s.tied[v] = false
				s.heap.push(spItem{dist: nd, node: v})
			} else if nd == s.dist[v] && v != src && fz.linkSrc[s.parent[v]] != u {
				// src has no parent; a parallel arc from u is no rival.
				s.tied[v] = true
			}
		}
	}
	return false, true
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
