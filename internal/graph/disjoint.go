package graph

// EdgeDisjointPaths returns the maximum number of pairwise link-disjoint
// paths from src to dst (up to limit; limit <= 0 means unbounded), via
// unit-capacity max-flow with BFS augmentation. Host non-transit rules
// and link state apply, so for a P-Net host pair the answer is bounded by
// the number of usable planes — the redundancy a P-Net buys (§5.4).
func EdgeDisjointPaths(g *Graph, src, dst NodeID, limit int) int {
	if src == dst {
		return 0
	}
	fz := g.Frozen()
	used := make([]bool, fz.NumLinks()) // forward flow on link
	count := 0
	for limit <= 0 || count < limit {
		if !augment(fz, src, dst, used) {
			break
		}
		count++
	}
	return count
}

// augment finds one augmenting path in the unit-capacity residual graph
// and flips its links. Residual arcs: unused forward links, plus reverse
// traversal of used links (cancelling flow).
func augment(fz *Frozen, src, dst NodeID, used []bool) bool {
	type step struct {
		link    LinkID
		forward bool
	}
	parent := make(map[NodeID]step, 64)
	visited := make([]bool, fz.NumNodes())
	visited[src] = true
	queue := []NodeID{src}

	for len(queue) > 0 && !visited[dst] {
		u := queue[0]
		queue = queue[1:]
		if u != src && !fz.Transit(u) && u != dst {
			continue
		}
		for _, id := range fz.OutLinks(u) {
			v := fz.LinkDst(id)
			if !fz.LinkUp(id) || used[id] || visited[v] {
				continue
			}
			visited[v] = true
			parent[v] = step{link: id, forward: true}
			queue = append(queue, v)
		}
		for _, id := range fz.InLinks(u) {
			v := fz.LinkSrc(id)
			if !fz.LinkUp(id) || !used[id] || visited[v] {
				continue
			}
			visited[v] = true
			parent[v] = step{link: id, forward: false}
			queue = append(queue, v)
		}
	}
	if !visited[dst] {
		return false
	}
	for n := dst; n != src; {
		s := parent[n]
		if s.forward {
			used[s.link] = true
			n = fz.LinkSrc(s.link)
		} else {
			used[s.link] = false
			n = fz.LinkDst(s.link)
		}
	}
	return true
}
