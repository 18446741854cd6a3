package graph

// HopDistances returns the hop count of a shortest path from src to every
// node, or -1 where no path exists. Non-transit nodes other than src are
// never expanded, so distances "through" a host are not reported.
func HopDistances(g *Graph, src NodeID) []int {
	fz := g.Frozen()
	s := GetScratch()
	defer PutScratch(s)
	fz.BFS(s, src, -1, nil, nil)
	dist := make([]int, fz.NumNodes())
	for i := range dist {
		if s.Reached(NodeID(i)) {
			dist[i] = int(s.Dist(NodeID(i)))
		} else {
			dist[i] = -1
		}
	}
	return dist
}

// tracePath rebuilds a path from a parent-link array filled by a
// *Graph-based search.
func tracePath(g *Graph, parent []LinkID, src, dst NodeID) Path {
	var rev []LinkID
	for n := dst; n != src; {
		id := parent[n]
		rev = append(rev, id)
		n = g.Link(id).Src
	}
	links := make([]LinkID, len(rev))
	for i := range rev {
		links[i] = rev[len(rev)-1-i]
	}
	return Path{Links: links}
}

// DAG holds, for every node u, the out-links of u that lie on some
// shortest path from u to one destination: the next-hop set an ECMP router
// would install for it. The sets sit in one table in node order, and to[k]
// is the far end of links[k], so a walk toward the destination reads a few
// contiguous lines and nothing of the graph.
type DAG struct {
	dst   NodeID
	off   []int32 // u's next hops are links[off[u]:off[u+1]]
	links []LinkID
	to    []NodeID
}

// ShortestDAG returns the shortest-path DAG toward dst over the links
// where banned[link] is false (banned may be nil).
func ShortestDAG(g *Graph, dst NodeID, banned []bool) *DAG {
	fz := g.Frozen()
	usable := func(id LinkID) bool { return fz.linkUp[id] && (banned == nil || !banned[id]) }
	// BFS backwards from dst over in-links.
	dist := make([]int, fz.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []NodeID{dst}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range fz.InLinks(u) {
			if !usable(id) {
				continue
			}
			// l.Src forwards into u; l.Src must be allowed to forward
			// (transit) unless it is the origin of a path, which is always
			// permitted, so no transit check on l.Src here. But u must be
			// transit to extend the path beyond it, unless u == dst.
			if u != dst && !fz.transit[u] {
				continue
			}
			if src := fz.linkSrc[id]; dist[src] < 0 {
				dist[src] = dist[u] + 1
				queue = append(queue, src)
			}
		}
	}
	onDAG := func(u int, id LinkID) bool {
		if !usable(id) {
			return false
		}
		v := fz.linkDst[id]
		if v != dst && !fz.transit[v] {
			return false
		}
		dv := dist[v]
		return dv >= 0 && dv == dist[u]-1
	}
	// Count, then fill, so that the table is allocated once at its size.
	n := 0
	for u := 0; u < fz.NumNodes(); u++ {
		if dist[u] > 0 {
			for _, id := range fz.OutLinks(NodeID(u)) {
				if onDAG(u, id) {
					n++
				}
			}
		}
	}
	d := &DAG{
		dst:   dst,
		off:   make([]int32, fz.NumNodes()+1),
		links: make([]LinkID, 0, n),
		to:    make([]NodeID, 0, n),
	}
	for u := 0; u < fz.NumNodes(); u++ {
		d.off[u] = int32(len(d.links))
		if dist[u] <= 0 {
			continue
		}
		for _, id := range fz.OutLinks(NodeID(u)) {
			if onDAG(u, id) {
				d.links = append(d.links, id)
				d.to = append(d.to, fz.linkDst[id])
			}
		}
	}
	d.off[fz.NumNodes()] = int32(len(d.links))
	return d
}

// ECMPPath walks the shortest-path DAG toward its destination starting at
// src, at each node choosing among the equal-cost next hops by the flow
// hash. This models per-flow ECMP: a given (flow hash, dst) pair is pinned
// to one deterministic path. ok is false when the destination is
// unreachable from src.
func ECMPPath(dag *DAG, src NodeID, flowHash uint64) (Path, bool) {
	links, ok := ECMPWalk(dag, src, flowHash, nil)
	if !ok {
		return Path{}, false
	}
	return Path{Links: links}, true
}

// ECMPWalk is ECMPPath into a caller's buffer: it appends the route's links
// to buf, and returns the grown buffer even when ok is false so that it can
// be reused.
func ECMPWalk(dag *DAG, src NodeID, flowHash uint64, buf []LinkID) (links []LinkID, ok bool) {
	links = buf
	if src == dag.dst {
		return links, false
	}
	u := src
	h := flowHash
	for u != dag.dst {
		first := dag.off[u]
		n := uint64(dag.off[u+1] - first)
		if n == 0 {
			return links, false
		}
		h = splitmix64(h)
		// A power-of-two fan-out (a host's planes, a fat tree's uplinks)
		// picks with a mask: the same index as the modulo, without a divide.
		i := h & (n - 1)
		if n&(n-1) != 0 {
			i = h % n
		}
		k := uint64(first) + i
		links = append(links, dag.links[k])
		u = dag.to[k]
	}
	return links, true
}

// splitmix64 is the SplitMix64 mixing function, used to derive per-hop
// hash decisions from a single per-flow hash the way a switch pipeline
// re-hashes the five-tuple at every hop.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// AvgShortestHops returns the mean hop count of shortest paths over the
// given (src, dst) pairs, ignoring unreachable pairs, and the number of
// unreachable pairs. Used by the fault-tolerance analysis (Figure 14).
func AvgShortestHops(g *Graph, pairs [][2]NodeID) (avg float64, unreachable int) {
	// Group by source so each source needs one BFS.
	bySrc := make(map[NodeID][]NodeID)
	for _, p := range pairs {
		bySrc[p[0]] = append(bySrc[p[0]], p[1])
	}
	var sum, n float64
	for src, dsts := range bySrc {
		dist := HopDistances(g, src)
		for _, d := range dsts {
			if dist[d] < 0 {
				unreachable++
				continue
			}
			sum += float64(dist[d])
			n++
		}
	}
	if n == 0 {
		return 0, unreachable
	}
	return sum / n, unreachable
}
