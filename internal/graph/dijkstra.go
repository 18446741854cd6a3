package graph

import "container/heap"

// WeightedShortestPath returns the minimum-total-weight path from src to
// dst, where weight[l] is the length of link l (must be non-negative).
// Down links and transit through non-transit nodes are excluded, as in the
// unweighted algorithms. ok is false when dst is unreachable.
//
// This is the reference implementation of the Garg–Könemann oracle's
// shortest-path search. The solver hot path uses Frozen.Dijkstra, which
// returns this function's path and distance bit for bit but allocates
// nothing. It certifies that per search: a search that skips the
// non-transit leaves is kept only when no equal-distance choice touched
// its path, and every other search repeats this function's relaxation
// order and equal-distance pop order. Tests in internal/graph and
// internal/mcf enforce the equivalence. Keep the two in lockstep when
// touching either.
func WeightedShortestPath(g *Graph, src, dst NodeID, weight []float64) (p Path, dist float64, ok bool) {
	if src == dst {
		return Path{}, 0, false
	}
	fz := g.Frozen()
	n := fz.NumNodes()
	d := make([]float64, n)
	parent := make([]LinkID, n)
	done := make([]bool, n)
	for i := range d {
		d[i] = -1
		parent[i] = -1
	}
	d[src] = 0
	pq := &nodeHeap{{node: src, dist: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(nodeItem)
		u := item.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			return tracePath(g, parent, src, dst), d[u], true
		}
		if u != src && !fz.Transit(u) {
			continue
		}
		for _, id := range fz.OutLinks(u) {
			v := fz.LinkDst(id)
			if !fz.LinkUp(id) || done[v] {
				continue
			}
			nd := d[u] + weight[id]
			if d[v] < 0 || nd < d[v] {
				d[v] = nd
				parent[v] = id
				heap.Push(pq, nodeItem{node: v, dist: nd})
			}
		}
	}
	return Path{}, 0, false
}

type nodeItem struct {
	node NodeID
	dist float64
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	*h = old[:n-1]
	return
}
