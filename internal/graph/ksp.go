package graph

// KShortestPathsMasked returns up to k loopless shortest paths from src
// to dst over the links where banned[link] is false (banned may be nil),
// in increasing hop-count order, using Yen's algorithm over unit link
// weights. Ties between equal-length paths are broken deterministically
// by link insertion order, so results are reproducible for a fixed
// topology. route.AcrossPlanes passes one plane's mask to confine the
// search to that dataplane.
//
// The spur searches — the hot loop of Yen's algorithm — run on the CSR
// frozen view with one pooled scratch space reused across every spur, so
// the per-spur cost is a cache-linear BFS with no per-search allocation.
func KShortestPathsMasked(g *Graph, src, dst NodeID, k int, banned []bool) []Path {
	if k <= 0 || src == dst {
		return nil
	}
	fz := g.Frozen()
	s := GetScratch()
	defer PutScratch(s)

	baseline := banned
	if baseline == nil {
		baseline = make([]bool, fz.NumLinks())
	}
	if !fz.BFS(s, src, dst, baseline, nil) {
		return nil
	}
	first := fz.PathTo(s, src, dst)
	result := []Path{first}
	seen := map[string]bool{first.key(): true}
	var candidates candidateHeap

	bannedLinks := append([]bool(nil), baseline...)
	bannedNodes := make([]bool, fz.NumNodes())

	for len(result) < k {
		prev := result[len(result)-1]
		prevNodes := prev.Nodes(g)
		// Spur from each node of the previous path except the last.
		for i := 0; i < len(prev.Links); i++ {
			spurNode := prevNodes[i]
			rootLinks := prev.Links[:i]

			// Ban links that would recreate a known path with this root.
			for _, p := range result {
				if hasPrefix(p.Links, rootLinks) && len(p.Links) > i {
					bannedLinks[p.Links[i]] = true
				}
			}
			for _, c := range candidates {
				if hasPrefix(c.Links, rootLinks) && len(c.Links) > i {
					bannedLinks[c.Links[i]] = true
				}
			}
			// Ban root-path nodes (except the spur node) to keep loopless.
			for _, n := range prevNodes[:i] {
				bannedNodes[n] = true
			}

			if fz.BFS(s, spurNode, dst, bannedLinks, bannedNodes) {
				links := make([]LinkID, 0, len(rootLinks)+8)
				links = append(links, rootLinks...)
				links = fz.AppendPath(s, spurNode, dst, links)
				cand := Path{Links: links}
				if key := cand.key(); !seen[key] {
					seen[key] = true
					candidates.push(cand)
				}
			}

			copy(bannedLinks, baseline)
			for j := range bannedNodes {
				bannedNodes[j] = false
			}
		}
		if len(candidates) == 0 {
			break
		}
		result = append(result, candidates.pop())
	}
	return result
}

func hasPrefix(links, prefix []LinkID) bool {
	if len(links) < len(prefix) {
		return false
	}
	for i := range prefix {
		if links[i] != prefix[i] {
			return false
		}
	}
	return true
}

// candidateHeap is an interface-free 4-ary min-heap of candidate paths,
// mirroring the sim engine's eventHeap and the scratch-space spHeap: no
// container/heap boxing, no allocation per push. Unlike Dijkstra's
// distance heap, the comparison here is a strict total order on distinct
// paths (length, then link sequence), so the pop sequence is the sorted
// order regardless of heap arity — switching from container/heap's
// binary layout cannot change which candidate is promoted next.
type candidateHeap []Path

// pathLess orders candidates by hop count, ties broken by link sequence.
func pathLess(a, b Path) bool {
	if len(a.Links) != len(b.Links) {
		return len(a.Links) < len(b.Links)
	}
	for x := range a.Links {
		if a.Links[x] != b.Links[x] {
			return a.Links[x] < b.Links[x]
		}
	}
	return false
}

func (h *candidateHeap) push(p Path) {
	*h = append(*h, p)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !pathLess(p, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = p
}

func (h *candidateHeap) pop() Path {
	s := *h
	top := s[0]
	last := s[len(s)-1]
	s[len(s)-1] = Path{}
	s = s[:len(s)-1]
	*h = s
	if len(s) == 0 {
		return top
	}
	// Sift the former last element down from the root.
	i := 0
	for {
		child := 4*i + 1
		if child >= len(s) {
			break
		}
		end := child + 4
		if end > len(s) {
			end = len(s)
		}
		best := child
		for c := child + 1; c < end; c++ {
			if pathLess(s[c], s[best]) {
				best = c
			}
		}
		if !pathLess(s[best], last) {
			break
		}
		s[i] = s[best]
		i = best
	}
	s[i] = last
	return top
}
